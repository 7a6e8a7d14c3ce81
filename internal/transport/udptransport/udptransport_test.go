package udptransport

import (
	"context"
	"encoding/binary"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"quorumconf/internal/metrics"
	"quorumconf/internal/msg"
	"quorumconf/internal/obs"
	"quorumconf/internal/wire"
)

func newPair(t *testing.T) (*Transport, *Transport) {
	t.Helper()
	return newPairWith(t, Config{}, Config{})
}

// newPairWith binds endpoints 1 and 2 from the given configs and registers
// each as the other's peer.
func newPairWith(t *testing.T, cfgA, cfgB Config) (*Transport, *Transport) {
	t.Helper()
	cfgA.ID, cfgB.ID = 1, 2
	a, err := New(cfgA)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close(context.Background()) })
	b, err := New(cfgB)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close(context.Background()) })
	if err := a.AddPeer(2, b.LocalAddr().String()); err != nil {
		t.Fatal(err)
	}
	if err := b.AddPeer(1, a.LocalAddr().String()); err != nil {
		t.Fatal(err)
	}
	return a, b
}

// serve installs h as tr's handler and ends every delivery with a Flush,
// the way an event loop ends its turn, so owed ACKs leave promptly.
func serve(tr *Transport, h Handler) {
	tr.SetHandler(func(env *wire.Envelope) {
		h(env)
		tr.Flush()
	})
}

// sendAcked sends env from tr, ends the turn with a Flush, and waits until
// tr has received one more ACK than before: the observable fate of an
// acknowledged send.
func sendAcked(t *testing.T, tr *Transport, env *wire.Envelope) {
	t.Helper()
	before := tr.Metrics().Counter(CtrAckRx)
	if err := tr.Send(context.Background(), env); err != nil {
		t.Fatal(err)
	}
	tr.Flush()
	waitFor(t, 5*time.Second, func() bool { return tr.Metrics().Counter(CtrAckRx) > before })
}

func waitFor(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("condition not reached in time")
}

func TestBidirectionalDelivery(t *testing.T) {
	a, b := newPair(t)
	const n = 50

	var mu sync.Mutex
	gotA, gotB := map[uint64]bool{}, map[uint64]bool{}
	serve(a, func(env *wire.Envelope) {
		mu.Lock()
		defer mu.Unlock()
		gotA[env.MsgID] = true
	})
	serve(b, func(env *wire.Envelope) {
		mu.Lock()
		defer mu.Unlock()
		gotB[env.MsgID] = true
	})

	for i := 0; i < n; i++ {
		if err := a.Send(context.Background(), &wire.Envelope{Type: msg.TRepReq, Dst: 2, Category: metrics.CatSync, Payload: msg.RepReq{}}); err != nil {
			t.Fatal(err)
		}
		if err := b.Send(context.Background(), &wire.Envelope{Type: msg.TRepRsp, Dst: 1, Category: metrics.CatSync, Payload: msg.RepRsp{}}); err != nil {
			t.Fatal(err)
		}
	}
	a.Flush()
	b.Flush()
	waitFor(t, 5*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(gotA) == n && len(gotB) == n
	})
	if got := b.Metrics().Counter(CtrDelivered); got != n {
		t.Errorf("b delivered %d envelopes, want %d", got, n)
	}
}

func TestPayloadSurvivesSocketRoundTrip(t *testing.T) {
	a, b := newPair(t)
	want := msg.QuorumClt{BallotID: 42, Owner: 1, Addr: 77, Split: true, Allocator: 1}

	got := make(chan *wire.Envelope, 1)
	serve(b, func(env *wire.Envelope) { got <- env })
	if err := a.Send(context.Background(), &wire.Envelope{Type: msg.TQuorumClt, Dst: 2, Category: metrics.CatConfig, Payload: want}); err != nil {
		t.Fatal(err)
	}
	a.Flush()
	select {
	case env := <-got:
		if env.Src != 1 || env.Dst != 2 {
			t.Errorf("endpoints wrong: %+v", env)
		}
		if env.Payload != want {
			t.Errorf("payload = %+v, want %+v", env.Payload, want)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no delivery")
	}
}

func TestUnknownPeer(t *testing.T) {
	a, _ := newPair(t)
	err := a.Send(context.Background(), &wire.Envelope{Type: msg.TRepReq, Dst: 99, Category: metrics.CatSync, Payload: msg.RepReq{}})
	if !errors.Is(err, ErrUnknownPeer) {
		t.Errorf("send to unknown peer: %v", err)
	}
}

func TestSendAfterClose(t *testing.T) {
	a, _ := newPair(t)
	if err := a.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	err := a.Send(context.Background(), &wire.Envelope{Type: msg.TRepReq, Dst: 2, Category: metrics.CatSync, Payload: msg.RepReq{}})
	if !errors.Is(err, ErrClosed) {
		t.Errorf("send after close: %v", err)
	}
}

// TestRetransmitUntilAcked points a transport at a hand-rolled UDP socket
// that stays silent for the first two data frames and only acks the third:
// the message must still arrive exactly once in the sender's accounting.
func TestRetransmitUntilAcked(t *testing.T) {
	a, err := New(Config{ID: 1, RetryBase: 20 * time.Millisecond, MaxAttempts: 6})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close(context.Background()) })

	peer, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { peer.Close() })
	if err := a.AddPeer(2, peer.LocalAddr().String()); err != nil {
		t.Fatal(err)
	}

	acked := make(chan struct{})
	go func() {
		buf := make([]byte, 64*1024)
		frames := 0
		for {
			n, raddr, err := peer.ReadFromUDP(buf)
			if err != nil {
				return
			}
			if n < 1 || buf[0] != frameData {
				continue
			}
			frames++
			if frames < 3 {
				continue // drop: force retransmission
			}
			env, err := wire.Decode(buf[1:n])
			if err != nil {
				t.Error(err)
				return
			}
			ack := binary.AppendUvarint([]byte{frameAck}, env.MsgID)
			if _, err := peer.WriteToUDP(ack, raddr); err != nil {
				t.Error(err)
			}
			close(acked)
			return
		}
	}()

	if err := a.Send(context.Background(), &wire.Envelope{Type: msg.TRepReq, Dst: 2, Category: metrics.CatSync, Payload: msg.RepReq{}}); err != nil {
		t.Fatal(err)
	}
	a.Flush()
	select {
	case <-acked:
	case <-time.After(10 * time.Second):
		t.Fatal("third transmission never happened")
	}
	waitFor(t, 5*time.Second, func() bool { return a.Metrics().Counter(CtrAckRx) == 1 })
	if got := a.Metrics().Counter(CtrRetries); got < 2 {
		t.Errorf("retries = %d, want >= 2", got)
	}
	if got := a.Metrics().Counter(CtrSendDrop); got != 0 {
		t.Errorf("send drops = %d, want 0", got)
	}
}

// TestDuplicateSuppression injects the same data frame twice from a raw
// socket: the receiver must deliver once, ack twice.
func TestDuplicateSuppression(t *testing.T) {
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
	delivered := 0
	b.SetHandler(func(*wire.Envelope) {
		mu.Lock()
		defer mu.Unlock()
		delivered++
	})

	frame := []byte{frameData}
	frame, err = wire.AppendEncode(frame, &wire.Envelope{
		MsgID: 7, Type: msg.TRepReq, Src: 1, Dst: 2, Category: metrics.CatSync, Hops: 1, Payload: msg.RepReq{},
	})
	if err != nil {
		t.Fatal(err)
	}
	baddr := b.LocalAddr()
	for i := 0; i < 2; i++ {
		if _, err := raw.WriteToUDP(frame, baddr); err != nil {
			t.Fatal(err)
		}
	}

	waitFor(t, 5*time.Second, func() bool { return b.Metrics().Counter(CtrDupDrop) == 1 })
	mu.Lock()
	defer mu.Unlock()
	if delivered != 1 {
		t.Errorf("delivered %d times, want 1", delivered)
	}
	if got := b.Metrics().Counter(CtrAckTx); got != 2 {
		t.Errorf("acks sent = %d, want 2", got)
	}
}

// TestSendAcked: a send to a live peer is acknowledged, once, and nothing
// is dropped.
func TestSendAcked(t *testing.T) {
	a, b := newPair(t)
	serve(b, func(*wire.Envelope) {})
	sendAcked(t, a, &wire.Envelope{Type: msg.TRepReq, Dst: 2, Category: metrics.CatSync, Payload: msg.RepReq{}})
	if got := a.Metrics().Counter(CtrAckRx); got != 1 {
		t.Errorf("acks received = %d, want 1", got)
	}
	if got := a.Metrics().Counter(CtrSendDrop); got != 0 {
		t.Errorf("send drops = %d, want 0", got)
	}
}

// TestRetriesExhaustedDrops: a send to a silent peer (raw socket that
// never acks) ends in one send_drop and a transport_drop event with detail
// retries_exhausted, after the full retry sequence.
func TestRetriesExhaustedDrops(t *testing.T) {
	ring := obs.NewRing(64)
	tracer := obs.NewTracer(nil, ring)
	a, err := New(Config{ID: 1, RetryBase: 5 * time.Millisecond, MaxAttempts: 3, Tracer: tracer})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close(context.Background()) })

	mute, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mute.Close() })
	if err := a.AddPeer(2, mute.LocalAddr().String()); err != nil {
		t.Fatal(err)
	}

	env := &wire.Envelope{Type: msg.TRepReq, Dst: 2, Category: metrics.CatSync, Payload: msg.RepReq{}}
	if err := a.Send(context.Background(), env); err != nil {
		t.Fatal(err)
	}
	a.Flush()
	waitFor(t, 10*time.Second, func() bool { return a.Metrics().Counter(CtrSendDrop) == 1 })
	if got := a.Metrics().Counter(CtrAckRx); got != 0 {
		t.Errorf("acks received from a silent peer = %d, want 0", got)
	}
	var sends, retries, drops int
	for _, e := range ring.Snapshot() {
		switch e.Kind {
		case obs.EvTransportSend:
			sends++
		case obs.EvTransportRetry:
			retries++
		case obs.EvTransportDrop:
			drops++
			if e.Detail != "retries_exhausted" || e.MsgID != env.MsgID {
				t.Errorf("transport_drop event %+v, want detail retries_exhausted for message %d", e, env.MsgID)
			}
		}
	}
	if sends != 1 || retries != 2 || drops != 1 {
		t.Errorf("trace saw sends=%d retries=%d drops=%d, want 1/2/1", sends, retries, drops)
	}
}

// TestSendContextCancelled: a context cancelled before the call fails fast.
func TestSendContextCancelled(t *testing.T) {
	a, _ := newPair(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := a.Send(ctx, &wire.Envelope{Type: msg.TRepReq, Dst: 2, Category: metrics.CatSync, Payload: msg.RepReq{}})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("send with cancelled context: %v", err)
	}
}
