package udptransport

import (
	"context"
	"sync"
	"testing"
	"time"

	"quorumconf/internal/metrics"
	"quorumconf/internal/msg"
	"quorumconf/internal/obs"
	"quorumconf/internal/wire"
)

// TestSpanSurvivesSocket pins that a causal span identifier rides a data
// frame across the socket unchanged.
func TestSpanSurvivesSocket(t *testing.T) {
	a, b := newPair(t)
	span := obs.MintSpan(1, 42)

	got := make(chan uint64, 1)
	serve(b, func(env *wire.Envelope) { got <- env.Span })
	err := a.Send(context.Background(), &wire.Envelope{
		Type: msg.TRepReq, Dst: 2, Category: metrics.CatSync, Span: span, Payload: msg.RepReq{},
	})
	if err != nil {
		t.Fatal(err)
	}
	a.Flush()
	select {
	case s := <-got:
		if s != span {
			t.Errorf("delivered span %x, want %x", s, span)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no delivery")
	}
}

// TestSpanSurvivesBatchAndRetry drives span-carrying envelopes through the
// worst of the wire path at once — coalesced batch frames, chaos drops
// forcing ARQ retransmissions — and asserts every span arrives intact.
// It also pins that transmitted batch frames record their occupancy into
// the configured histogram registry.
func TestSpanSurvivesBatchAndRetry(t *testing.T) {
	hists := obs.NewHistograms()
	a, b := newPairWith(t, Config{
		DropRate:    0.4,
		RetryBase:   10 * time.Millisecond,
		MaxAttempts: 12,
		Histograms:  hists,
	}, Config{})

	const n = 40
	var mu sync.Mutex
	got := make(map[uint64]bool)
	serve(b, func(env *wire.Envelope) {
		mu.Lock()
		defer mu.Unlock()
		got[env.Span] = true
	})

	want := make(map[uint64]bool)
	for i := 0; i < n; i++ {
		span := obs.MintSpan(1, uint64(i+1))
		want[span] = true
		err := a.Send(context.Background(), &wire.Envelope{
			Type: msg.TQuorumClt, Dst: 2, Category: metrics.CatConfig, Span: span,
			Payload: msg.QuorumClt{BallotID: uint64(i + 1), Owner: 1, Addr: 7, Allocator: 1},
		})
		if err != nil {
			t.Fatal(err)
		}
		if i%8 == 7 {
			a.Flush() // a turn ends; later turns find the peer busy and wait
		}
	}
	waitFor(t, 10*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(got) == n
	})
	mu.Lock()
	defer mu.Unlock()
	for span := range want {
		if !got[span] {
			t.Errorf("span %x lost in transit", span)
		}
	}
	batches := a.Metrics().Counter(CtrBatchTx)
	if batches == 0 {
		t.Fatal("no batch frames transmitted; the test did not exercise coalescing")
	}
	snap, ok := hists.Snapshot(obs.HistBatchOccupancy)
	if !ok {
		t.Fatal("batch occupancy histogram not recorded")
	}
	if snap.Count != uint64(batches) {
		t.Errorf("occupancy observations = %d, want one per batch frame (%d)", snap.Count, batches)
	}
}
