package udptransport

import (
	"context"
	"testing"
	"time"

	"quorumconf/internal/metrics"
	"quorumconf/internal/msg"
	"quorumconf/internal/obs"
	"quorumconf/internal/radio"
	"quorumconf/internal/wire"
)

// TestAckPiggybackedOnReply: a responder that answers within the turn in
// which the request arrived sends one datagram back — the reply with the
// request's ACK in front of it — and no standalone ACK.
func TestAckPiggybackedOnReply(t *testing.T) {
	// A 2 s retry base: nothing observed within a few hundred
	// milliseconds can be a retransmission.
	a, b := newPairWith(t, Config{RetryBase: 2 * time.Second}, Config{RetryBase: 2 * time.Second})
	serve(b, func(env *wire.Envelope) {
		if err := b.Send(context.Background(), &wire.Envelope{Type: msg.TQuorumCfm, Dst: env.Src, Category: metrics.CatConfig, Payload: msg.QuorumCfm{BallotID: 1, HasReplica: true}}); err != nil {
			t.Error(err)
		}
	})
	replies := make(chan *wire.Envelope, 1)
	serve(a, func(env *wire.Envelope) { replies <- env })

	sendAcked(t, a, &wire.Envelope{Type: msg.TQuorumClt, Dst: 2, Category: metrics.CatConfig, Payload: msg.QuorumClt{BallotID: 1, Owner: 1, Addr: 9, Allocator: 1}})
	select {
	case <-replies:
	case <-time.After(5 * time.Second):
		t.Fatal("no reply")
	}
	if got := b.Metrics().Counter(CtrAckPiggybacked); got != 1 {
		t.Errorf("responder piggybacked %d ACKs, want 1", got)
	}
	if got := b.Metrics().Counter(CtrAckTx); got != 0 {
		t.Errorf("responder sent %d standalone ACKs, want 0", got)
	}
	if got := b.Metrics().Counter(CtrDataTx); got != 1 {
		t.Errorf("responder sent %d data datagrams, want 1", got)
	}
	// The requester has nothing to send back, so its ACK for the reply
	// leaves alone at the end of its turn.
	waitFor(t, 5*time.Second, func() bool { return a.Metrics().Counter(CtrAckTx) == 1 })
}

// TestOversizedFrameFailsFast: a datagram the socket refuses outright is
// dropped at once instead of holding the peer's in-flight slot through
// every retransmission, so the next frame to that peer follows within one
// round trip.
func TestOversizedFrameFailsFast(t *testing.T) {
	ring := obs.NewRing(64)
	a, b := newPairWith(t, Config{RetryBase: 2 * time.Second, Tracer: obs.NewTracer(nil, ring)}, Config{RetryBase: 2 * time.Second})
	got := make(chan string, 2)
	serve(b, func(env *wire.Envelope) { got <- env.Type })

	holders := make([]radio.NodeID, 30000) // ~90 KB encoded: over the 65,507-byte UDP limit
	for i := range holders {
		holders[i] = radio.NodeID(1<<20 + i)
	}
	big := &wire.Envelope{Type: msg.TReplicaDist, Dst: 2, Category: metrics.CatSync, Payload: msg.ReplicaDist{Info: msg.HolderInfo{Owner: 1, Holders: holders}}}
	small := &wire.Envelope{Type: msg.TRepReq, Dst: 2, Category: metrics.CatHello, Payload: msg.RepReq{}}
	for _, env := range []*wire.Envelope{big, small} {
		if err := a.Send(context.Background(), env); err != nil {
			t.Fatal(err)
		}
	}
	start := time.Now()
	a.Flush()
	select {
	case typ := <-got:
		if typ != msg.TRepReq {
			t.Fatalf("delivered %s, want the small %s", typ, msg.TRepReq)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("small message stalled behind the oversized one")
	}
	// The first retransmission waits at least RetryBase/2 = 1 s.
	if wait := time.Since(start); wait > 500*time.Millisecond {
		t.Errorf("small message took %v, want well under one retransmission timeout", wait)
	}
	if got := a.Metrics().Counter(CtrSendDrop); got != 1 {
		t.Errorf("send_drop = %d, want 1", got)
	}
	found := false
	for _, e := range ring.Snapshot() {
		if e.Kind == obs.EvTransportDrop && e.Detail == "write_error" && e.MsgID == big.MsgID {
			found = true
		}
	}
	if !found {
		t.Error("no transport_drop event with detail write_error for the oversized frame")
	}
}
