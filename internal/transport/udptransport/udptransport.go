// Package udptransport carries wire envelopes over real UDP sockets.
//
// UDP gives the same failure model the paper assumes of a radio: datagrams
// are lost, reordered and duplicated. The transport adds the minimum ARQ a
// deployable daemon needs without becoming TCP:
//
//   - a bounded backlog per destination and at most one frame in flight
//     per peer, so a slow peer cannot stall traffic to the others;
//   - stop-and-wait retransmission with exponential backoff plus jitter
//     (base doubles per attempt, uniformly spread over [0.5x, 1.5x]);
//   - positive acknowledgements by message ID, and receive-side
//     deduplication by (source, message ID) so retransmitted datagrams
//     deliver exactly once per endpoint lifetime window;
//   - counters for every event, recorded into a metrics.SyncCollector and
//     served by quorumd's /v1/metrics endpoint.
//
// # Turns
//
// Send only queues. The endpoint's owner calls Flush once per turn of its
// event loop, and Flush writes one frame per idle peer from the caller's
// goroutine: its backlog as a 'B' batch frame ('D' for a lone envelope).
// When the frame's ACK arrives, the read loop sends that peer's next
// backlog frame itself; retransmissions run from a per-frame timer. The
// ACK for a received frame is owed to its sender: it rides in front of the
// next frame to that peer, or leaves at the end of the turn as one
// multi-ID ACK frame, so a request and its reply cost two datagrams. A
// handler with no event loop behind it calls Flush itself. Duplicates and
// frames from unregistered addresses are acked at once. On the socket:
//
//	'D' <wire envelope>                      data
//	'B' <wire batch frame>                   N envelopes, acked by the first's ID
//	'A' <uvarint message ID>...              acknowledgements, one or more
//	'K' <uvarint n> <n uvarint IDs> <D|B>    data carrying n acknowledgements
//
// A frame that exhausts its attempts, or whose write fails outright (a
// datagram too large for the socket, say), is dropped with a counter bump
// and the peer's next frame follows; the protocol's own timeouts recover,
// exactly as they do over lossy radio.
//
// # Hardening
//
// With Config.AuthKey set, every datagram on the socket — data, batch and
// ack alike — is wrapped in a wire auth frame ('Q','A', HMAC-SHA256, see
// wire.Seal) and inbound datagrams that do not verify are dropped with an
// auth_reject before any ARQ, dedup or handler state is touched. With
// Config.RateLimit set, a per-remote-address token bucket is charged even
// earlier: over-rate datagrams are dropped with a rate_limited before the
// HMAC is even computed, so a flood cannot buy CPU with garbage.
package udptransport

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"quorumconf/internal/metrics"
	"quorumconf/internal/netstack"
	"quorumconf/internal/obs"
	"quorumconf/internal/radio"
	"quorumconf/internal/wire"
)

// Handler consumes envelopes delivered to the local node. The read loop
// invokes it, so a handler must be fast and must not block: hand off to a
// channel or event loop for real work. Each delivery's ACK is owed until
// the next Flush, which that loop calls once per turn.
type Handler func(env *wire.Envelope)

// Errors returned by Send and AddPeer. Match them with errors.Is; Send
// wraps them with destination detail.
var (
	// ErrUnknownPeer reports a destination with no registered address.
	ErrUnknownPeer = errors.New("udptransport: unknown peer")
	// ErrClosed reports use after Close.
	ErrClosed = errors.New("udptransport: closed")
	// ErrQueueFull reports backpressure: the destination's backlog is at
	// QueueLen.
	ErrQueueFull = errors.New("udptransport: send queue full")
)

// Frame kind bytes.
const (
	frameData      = 'D'
	frameAck       = 'A'
	frameBatch     = 'B'
	framePiggyback = 'K'
)

// maxBatchBytes caps a batch frame's payload so it stays well inside one
// 64 KiB UDP datagram.
const maxBatchBytes = 60000

// maxOwed bounds the ACKs owed to one peer (and so the IDs one ACK frame
// or piggyback prefix carries); frames received beyond it are acked at once.
const maxOwed = 256

// Counter names recorded into the collector.
const (
	CtrDataTx         = "transport.data_tx"         // data datagrams written (incl. retransmits)
	CtrRetries        = "transport.retries"         // retransmissions
	CtrAckTx          = "transport.ack_tx"          // standalone ACK datagrams written
	CtrAckPiggybacked = "transport.ack_piggybacked" // ACKs that rode a data frame instead
	CtrAckRx          = "transport.ack_rx"          // ACKs received, one per message ID
	CtrDelivered      = "transport.delivered"       // envelopes handed to the handler
	CtrDupDrop        = "transport.dup_drop"        // duplicate data frames suppressed
	CtrSendDrop       = "transport.send_drop"       // messages dropped: queue full, write error, max attempts
	CtrDecodeErr      = "transport.decode_err"      // undecodable frames received
	CtrChaosDrop      = "transport.chaos_drop"      // outbound frames discarded by DropRate
	CtrBatchTx        = "transport.batch_tx"        // batch frames written (excl. retransmits)
	CtrBatchRx        = "transport.batch_rx"        // batch frames received
	CtrBatched        = "transport.batched"         // envelopes that rode a batch frame out

	CtrAuthReject  = "transport.auth_reject"  // datagrams failing authentication
	CtrRateLimited = "transport.rate_limited" // datagrams dropped by the rate limiter
)

// Config parameterizes a transport endpoint. Zero fields take defaults.
type Config struct {
	// ID is the local node ID stamped into outgoing envelopes.
	ID radio.NodeID
	// Listen is the UDP address to bind ("127.0.0.1:0" for an ephemeral
	// loopback port).
	Listen string
	// Metrics receives the transport counters; nil allocates a private one.
	Metrics *metrics.SyncCollector
	// RetryBase is the first retransmission delay (default 30ms). Attempt
	// n waits jittered RetryBase * 2^n.
	RetryBase time.Duration
	// MaxAttempts bounds transmissions per frame (default 6).
	MaxAttempts int
	// QueueLen is the per-destination backlog capacity (default 512).
	QueueLen int
	// DropRate discards outbound data frames with this probability, in
	// [0, 1) — a chaos knob mirroring the netstack's loss model, for
	// exercising retransmission against real sockets.
	DropRate float64
	// AuthKey, when non-empty, turns on frame authentication: every
	// outbound datagram is sealed (wire.Seal, HMAC-SHA256) and inbound
	// datagrams that fail wire.Open are dropped before any transport
	// state is touched. All endpoints of a cluster must share the key.
	AuthKey []byte
	// RateLimit, when positive, enables a per-remote-address token bucket
	// admitting this many datagrams per second; datagrams beyond the
	// budget are dropped before authentication. Zero disables limiting.
	RateLimit float64
	// RateBurst is the bucket depth — how many back-to-back datagrams a
	// remote may burst before the steady rate applies (default
	// max(16, RateLimit)).
	RateBurst int
	// Tracer receives transport_send/retry/drop/dedup events; nil
	// disables tracing at zero cost.
	Tracer *obs.Tracer
	// Histograms, when set, records the batch-occupancy distribution
	// (obs.HistBatchOccupancy): how many envelopes each transmitted batch
	// frame coalesced. Nil records nothing at zero cost.
	Histograms *obs.Histograms
}

func (c *Config) setDefaults() {
	if c.Listen == "" {
		c.Listen = "127.0.0.1:0"
	}
	if c.Metrics == nil {
		c.Metrics = metrics.NewSync()
	}
	if c.RetryBase == 0 {
		c.RetryBase = 30 * time.Millisecond
	}
	if c.MaxAttempts == 0 {
		c.MaxAttempts = 6
	}
	if c.QueueLen == 0 {
		c.QueueLen = 512
	}
	if c.RateLimit > 0 && c.RateBurst == 0 {
		c.RateBurst = 16
		if int(c.RateLimit) > c.RateBurst {
			c.RateBurst = int(c.RateLimit)
		}
	}
}

// dedupCap bounds the (source, message ID) suppression window.
const dedupCap = 8192

type dedupKey struct {
	src radio.NodeID
	id  uint64
}

// outgoing is one queued envelope, already encoded.
type outgoing struct {
	enc   []byte
	msgID uint64
}

// peer is one destination's state, guarded by Transport.mu.
type peer struct {
	id      radio.NodeID
	addr    *net.UDPAddr
	backlog []outgoing // queued, not yet framed; at most QueueLen
	flight  *flight    // the one unacknowledged frame; nil when idle
	owed    []uint64   // IDs of frames received from this peer, not yet acked
}

// flight is a transmitted data frame waiting for its ACK.
type flight struct {
	p        *peer
	id       uint64 // ACK key: the first envelope's message ID
	datagram []byte // sealed socket bytes, resent verbatim
	attempt  int
	timer    *time.Timer
}

// write is one datagram to put on the socket once Transport.mu is released.
type write struct {
	addr *net.UDPAddr
	buf  []byte
	f    *flight // nil for an ACK frame
}

// Transport is one UDP endpoint. Safe for concurrent use.
type Transport struct {
	cfg  Config
	conn *net.UDPConn

	mu       sync.Mutex
	handler  Handler
	peers    map[radio.NodeID]*peer
	flights  map[uint64]*flight // in-flight frames by ACK key
	seen     map[dedupKey]struct{}
	seenRing []dedupKey
	seenPos  int
	closed   bool

	msgSeq atomic.Uint64
	done   chan struct{}
	wg     sync.WaitGroup
}

// New binds the socket and starts the receive loop.
func New(cfg Config) (*Transport, error) {
	if cfg.DropRate < 0 || cfg.DropRate >= 1 {
		return nil, fmt.Errorf("udptransport: %w: drop rate %v", netstack.ErrLossRateRange, cfg.DropRate)
	}
	if cfg.RateLimit < 0 {
		return nil, fmt.Errorf("udptransport: rate limit %v must not be negative", cfg.RateLimit)
	}
	cfg.setDefaults()
	laddr, err := net.ResolveUDPAddr("udp", cfg.Listen)
	if err != nil {
		return nil, fmt.Errorf("udptransport: %w", err)
	}
	conn, err := net.ListenUDP("udp", laddr)
	if err != nil {
		return nil, fmt.Errorf("udptransport: %w", err)
	}
	t := &Transport{
		cfg:     cfg,
		conn:    conn,
		peers:   make(map[radio.NodeID]*peer),
		flights: make(map[uint64]*flight),
		seen:    make(map[dedupKey]struct{}),
		done:    make(chan struct{}),
	}
	t.wg.Add(1)
	go t.readLoop()
	return t, nil
}

// LocalAddr returns the bound UDP address (useful with ephemeral ports).
func (t *Transport) LocalAddr() *net.UDPAddr { return t.conn.LocalAddr().(*net.UDPAddr) }

// Metrics returns the collector the transport records into.
func (t *Transport) Metrics() *metrics.SyncCollector { return t.cfg.Metrics }

// SetHandler installs the delivery callback. Install it before traffic is
// expected; a nil handler drops deliveries.
func (t *Transport) SetHandler(h Handler) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.handler = h
}

// AddPeer registers (or updates) the socket address for a node ID.
func (t *Transport) AddPeer(id radio.NodeID, addr string) error {
	uaddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return fmt.Errorf("udptransport: peer %d: %w", id, err)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return ErrClosed
	}
	if p, ok := t.peers[id]; ok {
		p.addr = uaddr
	} else {
		t.peers[id] = &peer{id: id, addr: uaddr}
	}
	return nil
}

// Send stamps env (Src, a fresh MsgID when zero, Hops), encodes it and
// queues it on the destination's backlog. Nothing reaches the socket
// before the next Flush. A done ctx fails fast, and a full backlog returns
// ErrQueueFull at once, so the daemon's event loop can never wedge on a
// slow peer. A nil return does not promise delivery: a frame that exhausts
// its attempts shows only as send_drop and a transport_drop event.
func (t *Transport) Send(ctx context.Context, env *wire.Envelope) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	env.Src = t.cfg.ID
	if env.MsgID == 0 {
		env.MsgID = t.msgSeq.Add(1)
	}
	if env.Hops == 0 {
		env.Hops = 1 // one socket hop; real deployments would count routes
	}
	enc, err := wire.AppendEncode(make([]byte, 0, 64), env)
	if err != nil {
		return fmt.Errorf("udptransport: %w", err)
	}

	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return ErrClosed
	}
	p, ok := t.peers[env.Dst]
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownPeer, env.Dst)
	}
	if len(p.backlog) >= t.cfg.QueueLen {
		t.cfg.Metrics.Inc(CtrSendDrop)
		t.trace(obs.EvTransportDrop, env.Dst, env.MsgID, "queue_full")
		return fmt.Errorf("%w: to %d", ErrQueueFull, env.Dst)
	}
	p.backlog = append(p.backlog, outgoing{enc: enc, msgID: env.MsgID})
	t.trace(obs.EvTransportSend, env.Dst, env.MsgID, env.Type)
	return nil
}

// Flush ends a turn: each idle peer's backlog leaves as one frame, and
// ACKs still owed to a peer after that leave as one ACK frame. The
// datagrams are written on the caller's goroutine.
func (t *Transport) Flush() {
	var ws []write
	t.mu.Lock()
	if !t.closed {
		for _, p := range t.peers {
			ws = t.launch(p, ws)
			if len(p.owed) > 0 {
				ws = append(ws, write{addr: p.addr, buf: t.seal(appendIDs([]byte{frameAck}, p.owed))})
				p.owed = p.owed[:0]
			}
		}
	}
	t.mu.Unlock()
	t.write(ws)
}

// Close stops the retransmit timers, closes the socket, and waits for the
// read loop to exit — up to ctx, after which Close returns the context
// error while teardown finishes in the background. Further Sends return
// ErrClosed.
func (t *Transport) Close(ctx context.Context) error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	close(t.done)
	for _, f := range t.flights {
		f.timer.Stop()
	}
	t.mu.Unlock()
	err := t.conn.Close()
	idle := make(chan struct{})
	go func() {
		t.wg.Wait()
		close(idle)
	}()
	select {
	case <-idle:
		return err
	case <-ctx.Done():
		return ctx.Err()
	}
}

// trace emits a transport event when a tracer is configured.
func (t *Transport) trace(kind obs.EventKind, peer radio.NodeID, msgID uint64, detail string) {
	t.cfg.Tracer.Emit(obs.Event{Kind: kind, Node: t.cfg.ID, Peer: peer, MsgID: msgID, Detail: detail})
}

// launch frames the head of an idle peer's backlog, carrying every ACK
// owed to it, puts the frame in flight and queues its first transmission
// on ws. Called with t.mu held.
func (t *Transport) launch(p *peer, ws []write) []write {
	if p.flight != nil || len(p.backlog) == 0 {
		return ws
	}
	n, size := 1, len(p.backlog[0].enc)
	for n < len(p.backlog) && n < wire.MaxBatch && size+len(p.backlog[n].enc) <= maxBatchBytes {
		size += len(p.backlog[n].enc)
		n++
	}
	members := p.backlog[:n:n]
	p.backlog = p.backlog[n:]

	frame := make([]byte, 0, 16+binary.MaxVarintLen64*len(p.owed)+size+4*n)
	if len(p.owed) > 0 && size <= maxBatchBytes { // else the prefix could push a lone envelope past the datagram limit
		frame = binary.AppendUvarint(append(frame, framePiggyback), uint64(len(p.owed)))
		frame = appendIDs(frame, p.owed)
		t.cfg.Metrics.Add(CtrAckPiggybacked, int64(len(p.owed)))
		p.owed = p.owed[:0]
	}
	if n == 1 {
		frame = append(append(frame, frameData), members[0].enc...)
	} else {
		encs := make([][]byte, n)
		for i, out := range members {
			encs[i] = out.enc
		}
		// Cannot fail: 2 <= n <= wire.MaxBatch envelopes we encoded ourselves.
		frame, _ = wire.AppendBatchRaw(append(frame, frameBatch), encs)
		t.cfg.Metrics.Inc(CtrBatchTx)
		t.cfg.Metrics.Add(CtrBatched, int64(n))
		t.cfg.Histograms.Observe(obs.HistBatchOccupancy, 1, int64(n))
		t.trace(obs.EvFrameBatched, p.id, members[0].msgID, "n="+strconv.Itoa(n))
	}

	// Seal once: the MAC is deterministic, so every retransmission reuses
	// the same sealed bytes.
	f := &flight{p: p, id: members[0].msgID, datagram: t.seal(frame)}
	f.timer = time.AfterFunc(jitter(t.cfg.RetryBase), func() { t.retransmit(f) })
	p.flight = f
	t.flights[f.id] = f
	return append(ws, write{addr: p.addr, buf: f.datagram, f: f})
}

// retransmit is a flight's timer: resend with the next backoff, or drop
// the frame once MaxAttempts transmissions went unacknowledged and launch
// the peer's next one.
func (t *Transport) retransmit(f *flight) {
	var ws []write
	t.mu.Lock()
	if f.p.flight == f && !t.closed { // else acked, dropped or closed meanwhile
		f.attempt++
		if f.attempt >= t.cfg.MaxAttempts {
			t.drop(f, "retries_exhausted")
			ws = t.launch(f.p, ws)
		} else {
			t.cfg.Metrics.Inc(CtrRetries)
			t.trace(obs.EvTransportRetry, f.p.id, f.id, "")
			f.timer.Reset(jitter(t.cfg.RetryBase << f.attempt))
			ws = append(ws, write{addr: f.p.addr, buf: f.datagram, f: f})
		}
	}
	t.mu.Unlock()
	t.write(ws)
}

// land takes f out of flight. Called with t.mu held.
func (t *Transport) land(f *flight) {
	f.timer.Stop()
	delete(t.flights, f.id)
	f.p.flight = nil
}

// drop abandons an in-flight frame: one send_drop and a transport_drop
// event with reason. Called with t.mu held.
func (t *Transport) drop(f *flight, reason string) {
	t.land(f)
	t.cfg.Metrics.Inc(CtrSendDrop)
	t.trace(obs.EvTransportDrop, f.p.id, f.id, reason)
}

// write puts datagrams on the socket. A data frame whose write fails
// outright is dropped at once, so the peer's next frame can follow.
func (t *Transport) write(ws []write) {
	for len(ws) > 0 {
		w := ws[0]
		ws = ws[1:]
		if w.f == nil {
			if _, err := t.conn.WriteToUDP(w.buf, w.addr); err == nil {
				t.cfg.Metrics.Inc(CtrAckTx)
			}
			continue
		}
		t.cfg.Metrics.Inc(CtrDataTx)
		if t.cfg.DropRate > 0 && rand.Float64() < t.cfg.DropRate {
			t.cfg.Metrics.Inc(CtrChaosDrop)
			continue
		}
		if _, err := t.conn.WriteToUDP(w.buf, w.addr); err != nil && !transient(err) {
			t.mu.Lock()
			if w.f.p.flight == w.f && !t.closed {
				t.drop(w.f, "write_error")
				ws = t.launch(w.f.p, ws)
			}
			t.mu.Unlock()
		}
	}
}

// transient reports whether a failed write may succeed on retransmission:
// the kernel was short of buffer space. Anything else (EMSGSIZE, say)
// fails the same way on every attempt.
func transient(err error) bool {
	return errors.Is(err, syscall.ENOBUFS) || errors.Is(err, syscall.EAGAIN)
}

// jitter spreads d uniformly over [0.5d, 1.5d).
func jitter(d time.Duration) time.Duration {
	if d <= 0 {
		return d
	}
	return d/2 + time.Duration(rand.Int63n(int64(d)))
}

// appendIDs appends each message ID as a uvarint.
func appendIDs(b []byte, ids []uint64) []byte {
	for _, id := range ids {
		b = binary.AppendUvarint(b, id)
	}
	return b
}

// parseIDs reads n uvarint message IDs off the front of b (n < 0: until b
// ends), at most maxOwed and at least one, and returns them with the rest
// of b.
func parseIDs(b []byte, n int) ([]uint64, []byte, bool) {
	var ids []uint64
	for len(ids) != n && (n >= 0 || len(b) > 0) {
		id, k := binary.Uvarint(b)
		if k <= 0 || len(ids) == maxOwed {
			return nil, nil, false
		}
		ids = append(ids, id)
		b = b[k:]
	}
	return ids, b, len(ids) > 0
}

// maxBuckets bounds the rate limiter's per-remote state so an attacker
// cycling source ports cannot grow it without bound.
const maxBuckets = 4096

// bucket is one remote address's token-bucket state. The limiter is owned
// by the single readLoop goroutine, so no locking is needed.
type bucket struct {
	tokens float64
	last   time.Time
}

// admit charges one datagram from raddr against its bucket and reports
// whether it may pass. Limiting disabled admits everything.
func (t *Transport) admit(buckets map[string]*bucket, raddr *net.UDPAddr) bool {
	if t.cfg.RateLimit <= 0 {
		return true
	}
	now := time.Now()
	key := raddr.String()
	b, ok := buckets[key]
	if !ok {
		if len(buckets) >= maxBuckets {
			// Prune remotes whose buckets have fully refilled — they have
			// been idle at least RateBurst/RateLimit seconds.
			refill := time.Duration(float64(t.cfg.RateBurst) / t.cfg.RateLimit * float64(time.Second))
			for k, old := range buckets {
				if now.Sub(old.last) >= refill {
					delete(buckets, k)
				}
			}
			if len(buckets) >= maxBuckets {
				// Table still full of active remotes: refuse the newcomer
				// rather than evict someone who is behaving.
				return false
			}
		}
		b = &bucket{tokens: float64(t.cfg.RateBurst), last: now}
		buckets[key] = b
	}
	b.tokens += now.Sub(b.last).Seconds() * t.cfg.RateLimit
	if max := float64(t.cfg.RateBurst); b.tokens > max {
		b.tokens = max
	}
	b.last = now
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// readLoop receives datagrams until the socket closes. Hostile input is
// shed in order of increasing cost: the rate limiter first (a map lookup),
// then authentication (one HMAC), and only then frame decoding and ARQ
// state.
func (t *Transport) readLoop() {
	defer t.wg.Done()
	buf := make([]byte, 64*1024)
	buckets := make(map[string]*bucket)
	for {
		n, raddr, err := t.conn.ReadFromUDP(buf)
		if err != nil {
			select {
			case <-t.done:
				return
			default:
			}
			// Transient error on a live socket: keep reading.
			continue
		}
		if n < 1 {
			continue
		}
		if !t.admit(buckets, raddr) {
			t.cfg.Metrics.Inc(CtrRateLimited)
			t.trace(obs.EvRateLimited, 0, 0, raddr.String())
			continue
		}
		frame := buf[:n]
		if len(t.cfg.AuthKey) > 0 {
			inner, err := wire.Open(t.cfg.AuthKey, frame)
			if err != nil {
				t.cfg.Metrics.Inc(CtrAuthReject)
				t.trace(obs.EvAuthReject, 0, 0, raddr.String())
				continue
			}
			frame = inner
		}
		if !t.receive(frame, raddr) {
			t.cfg.Metrics.Inc(CtrDecodeErr)
		}
	}
}

// receive handles one authenticated frame and reports whether it decoded.
// ACKs apply before the data they rode in on is delivered, so a reply
// frees its request's in-flight slot first.
func (t *Transport) receive(frame []byte, raddr *net.UDPAddr) bool {
	if len(frame) < 1 {
		return false
	}
	kind, body := frame[0], frame[1:]
	var acks []uint64
	switch kind {
	case frameAck:
		ids, _, ok := parseIDs(body, -1)
		if ok {
			t.acked(ids)
		}
		return ok
	case framePiggyback:
		n, k := binary.Uvarint(body)
		if k <= 0 || n == 0 || n > maxOwed {
			return false
		}
		var ok bool
		if acks, body, ok = parseIDs(body[k:], int(n)); !ok || len(body) < 1 {
			return false
		}
		kind, body = body[0], body[1:]
	}
	var envs []*wire.Envelope
	switch kind {
	case frameData:
		env, err := wire.Decode(body)
		if err != nil {
			return false
		}
		envs = []*wire.Envelope{env}
	case frameBatch:
		var err error
		if envs, err = wire.DecodeBatch(body); err != nil {
			return false
		}
		t.cfg.Metrics.Inc(CtrBatchRx)
	default:
		return false
	}
	t.ack(envs[0], raddr)
	t.acked(acks)
	for _, env := range envs {
		t.deliver(env)
	}
	return true
}

// acked lands the flights the given IDs acknowledge and launches each
// freed peer's next frame from the read loop.
func (t *Transport) acked(ids []uint64) {
	if len(ids) == 0 {
		return
	}
	var ws []write
	t.mu.Lock()
	t.cfg.Metrics.Add(CtrAckRx, int64(len(ids)))
	for _, id := range ids {
		if f, ok := t.flights[id]; ok {
			t.land(f)
			ws = t.launch(f.p, ws)
		}
	}
	t.mu.Unlock()
	t.write(ws)
}

// ack acknowledges a received data frame by its first envelope's ID,
// mirroring the sender's ARQ. The ACK is owed to a registered sender and
// rides the next frame to it (possibly one this frame's own ACKs launch)
// or leaves at the next Flush; a duplicate (the sender missed the
// previous ACK) or a frame from an unregistered address is acked at once.
func (t *Transport) ack(first *wire.Envelope, raddr *net.UDPAddr) {
	t.mu.Lock()
	_, dup := t.seen[dedupKey{src: first.Src, id: first.MsgID}]
	p := t.peers[first.Src]
	owe := !dup && p != nil && len(p.owed) < maxOwed && p.addr.Port == raddr.Port && p.addr.IP.Equal(raddr.IP)
	if owe {
		p.owed = append(p.owed, first.MsgID)
	}
	t.mu.Unlock()
	if !owe {
		if _, err := t.conn.WriteToUDP(t.seal(appendIDs([]byte{frameAck}, []uint64{first.MsgID})), raddr); err == nil {
			t.cfg.Metrics.Inc(CtrAckTx)
		}
	}
}

// seal wraps a socket frame in an auth frame when authentication is on;
// with no key it returns the frame unchanged.
func (t *Transport) seal(frame []byte) []byte {
	if len(t.cfg.AuthKey) == 0 {
		return frame
	}
	// Cannot fail: the key is non-empty.
	sealed, _ := wire.AppendSeal(make([]byte, 0, wire.AuthOverhead+len(frame)), t.cfg.AuthKey, frame)
	return sealed
}

// deliver runs the dedup window and hands a received envelope to the
// handler.
func (t *Transport) deliver(env *wire.Envelope) {
	key := dedupKey{src: env.Src, id: env.MsgID}
	t.mu.Lock()
	if _, dup := t.seen[key]; dup {
		t.mu.Unlock()
		t.cfg.Metrics.Inc(CtrDupDrop)
		t.trace(obs.EvTransportDedup, env.Src, env.MsgID, "")
		return
	}
	if len(t.seenRing) < dedupCap {
		t.seenRing = append(t.seenRing, key)
	} else {
		delete(t.seen, t.seenRing[t.seenPos])
		t.seenRing[t.seenPos] = key
		t.seenPos = (t.seenPos + 1) % dedupCap
	}
	t.seen[key] = struct{}{}
	h := t.handler
	t.mu.Unlock()

	t.cfg.Metrics.Inc(CtrDelivered)
	t.cfg.Metrics.AddTraffic(env.Category, env.Hops)
	if h != nil {
		h(env)
	}
}
