package udptransport

import (
	"context"
	"testing"

	"quorumconf/internal/addrspace"
	"quorumconf/internal/metrics"
	"quorumconf/internal/msg"
	"quorumconf/internal/wire"
)

// BenchmarkBallotExchange drives one allocation's worth of owner↔voter
// traffic per op over two loopback endpoints: a QUORUM_CLT answered by a
// QUORUM_CFM, then a commit turn of QUORUM_UPD + UPDATE_LOC + COM_CFG to
// the same voter. The owner side runs on the benchmark goroutine as an
// event loop would — queue a turn's sends, then Flush — and the voter
// answers inline. datagrams/op counts data and ACK datagrams on both
// sides; with ACKs piggybacked on replies it is 4.
func BenchmarkBallotExchange(b *testing.B) {
	owner, err := New(Config{ID: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer owner.Close(context.Background())
	voter, err := New(Config{ID: 2})
	if err != nil {
		b.Fatal(err)
	}
	defer voter.Close(context.Background())
	if err := owner.AddPeer(2, voter.LocalAddr().String()); err != nil {
		b.Fatal(err)
	}
	if err := voter.AddPeer(1, owner.LocalAddr().String()); err != nil {
		b.Fatal(err)
	}

	cfm := make(chan struct{}, 1)
	committed := make(chan struct{}, 1)
	owner.SetHandler(func(env *wire.Envelope) {
		if env.Type == msg.TQuorumCfm {
			cfm <- struct{}{}
		}
	})
	serve(voter, func(env *wire.Envelope) {
		switch env.Type {
		case msg.TQuorumClt:
			reply := &wire.Envelope{Type: msg.TQuorumCfm, Dst: 1, Category: metrics.CatConfig, Payload: msg.QuorumCfm{BallotID: env.Payload.(msg.QuorumClt).BallotID, HasReplica: true}}
			if err := voter.Send(context.Background(), reply); err != nil {
				b.Error(err)
			}
		case msg.TComCfg:
			committed <- struct{}{}
		}
	})

	send := func(typ string, payload any) {
		if err := owner.Send(context.Background(), &wire.Envelope{Type: typ, Dst: 2, Category: metrics.CatConfig, Payload: payload}); err != nil {
			b.Fatal(err)
		}
	}
	count := func() int64 {
		var n int64
		for _, tr := range []*Transport{owner, voter} {
			n += tr.Metrics().Counter(CtrDataTx) + tr.Metrics().Counter(CtrAckTx)
		}
		return n
	}
	b.ReportAllocs()
	b.ResetTimer()
	before := count()
	for i := 0; i < b.N; i++ {
		addr := addrspace.Addr(0x0A000000 + i%60000 + 2)
		send(msg.TQuorumClt, msg.QuorumClt{BallotID: uint64(i + 1), Owner: 1, Addr: addr, Allocator: 1})
		owner.Flush()
		<-cfm
		send(msg.TQuorumUpd, msg.QuorumUpd{Owner: 1, Addr: addr})
		send(msg.TUpdateLoc, msg.UpdateLoc{Configurer: 2, Addr: addr})
		send(msg.TComCfg, msg.ComCfg{Addr: addr, Configurer: 1, PathHops: 1})
		owner.Flush()
		<-committed
	}
	b.StopTimer()
	b.ReportMetric(float64(count()-before)/float64(b.N), "datagrams/op")
}
