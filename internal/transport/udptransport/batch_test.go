package udptransport

import (
	"context"
	"net"
	"sync"
	"testing"
	"time"

	"quorumconf/internal/metrics"
	"quorumconf/internal/msg"
	"quorumconf/internal/obs"
	"quorumconf/internal/wire"
)

// TestBatchCoalescesBurst: a burst of small messages queued in one turn
// leaves the socket as a single batch frame at Flush, and every envelope
// still arrives exactly once.
func TestBatchCoalescesBurst(t *testing.T) {
	ring := obs.NewRing(256)
	a, b := newPairWith(t, Config{Tracer: obs.NewTracer(nil, ring)}, Config{})

	const n = 20
	var mu sync.Mutex
	got := map[uint64]int{}
	serve(b, func(env *wire.Envelope) {
		mu.Lock()
		defer mu.Unlock()
		got[env.MsgID]++
	})
	for i := 0; i < n; i++ {
		if err := a.Send(context.Background(), &wire.Envelope{Type: msg.TRepReq, Dst: 2, Category: metrics.CatSync, Payload: msg.RepReq{}}); err != nil {
			t.Fatal(err)
		}
	}
	a.Flush()
	waitFor(t, 5*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(got) == n
	})
	mu.Lock()
	for id, times := range got {
		if times != 1 {
			t.Errorf("message %d delivered %d times", id, times)
		}
	}
	mu.Unlock()
	if tx := a.Metrics().Counter(CtrBatchTx); tx != 1 {
		t.Errorf("burst produced %d batch frames, want 1", tx)
	}
	if rx := b.Metrics().Counter(CtrBatchRx); rx == 0 {
		t.Error("receiver saw no batch frames")
	}
	if batched := a.Metrics().Counter(CtrBatched); batched != n {
		t.Errorf("%d envelopes rode batches, want %d", batched, n)
	}
	found := false
	for _, e := range ring.Snapshot() {
		if e.Kind == obs.EvFrameBatched {
			found = true
		}
	}
	if !found {
		t.Error("no frame_batched trace event")
	}
}

// TestBatchRetransmitDeduped injects the same batch frame twice from a raw
// socket: each inner envelope delivers once, and both copies are acked (the
// retransmit means the sender missed the first ack).
func TestBatchRetransmitDeduped(t *testing.T) {
	b, err := New(Config{ID: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close(context.Background()) })
	raw, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { raw.Close() })

	var mu sync.Mutex
	delivered := map[uint64]int{}
	b.SetHandler(func(env *wire.Envelope) {
		mu.Lock()
		defer mu.Unlock()
		delivered[env.MsgID]++
	})

	envs := make([]*wire.Envelope, 3)
	for i := range envs {
		envs[i] = &wire.Envelope{
			MsgID: uint64(7 + i), Type: msg.TRepReq, Src: 1, Dst: 2,
			Category: metrics.CatSync, Hops: 1, Payload: msg.RepReq{},
		}
	}
	frame, err := wire.AppendEncodeBatch([]byte{frameBatch}, envs)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := raw.WriteToUDP(frame, b.LocalAddr()); err != nil {
			t.Fatal(err)
		}
	}

	waitFor(t, 5*time.Second, func() bool { return b.Metrics().Counter(CtrDupDrop) == 3 })
	mu.Lock()
	defer mu.Unlock()
	for _, env := range envs {
		if delivered[env.MsgID] != 1 {
			t.Errorf("message %d delivered %d times, want 1", env.MsgID, delivered[env.MsgID])
		}
	}
	if got := b.Metrics().Counter(CtrBatchRx); got != 2 {
		t.Errorf("batch frames received = %d, want 2", got)
	}
	if got := b.Metrics().Counter(CtrAckTx); got != 2 {
		t.Errorf("acks sent = %d, want 2", got)
	}
}

// TestBatchSharesOneAck: messages that coalesce into one batch all
// resolve with the batch's single acknowledgement: one ACK lands the
// frame, every message is delivered, and nothing stays in flight.
func TestBatchSharesOneAck(t *testing.T) {
	a, b := newPair(t)
	serve(b, func(*wire.Envelope) {})

	const n = 5
	for i := 0; i < n; i++ {
		if err := a.Send(context.Background(), &wire.Envelope{Type: msg.TRepReq, Dst: 2, Category: metrics.CatSync, Payload: msg.RepReq{}}); err != nil {
			t.Fatal(err)
		}
	}
	a.Flush()
	waitFor(t, 5*time.Second, func() bool { return a.Metrics().Counter(CtrAckRx) == 1 })
	if got := b.Metrics().Counter(CtrDelivered); got != n {
		t.Errorf("delivered %d messages, want %d", got, n)
	}
	if got := a.Metrics().Counter(CtrBatchTx); got != 1 {
		t.Errorf("batch frames = %d, want the %d messages in 1", got, n)
	}
	if got := a.Metrics().Counter(CtrSendDrop); got != 0 {
		t.Errorf("send drops = %d, want 0", got)
	}
	a.mu.Lock()
	inFlight := len(a.flights)
	a.mu.Unlock()
	if inFlight != 0 {
		t.Errorf("%d frames still in flight after the ACK", inFlight)
	}
}
