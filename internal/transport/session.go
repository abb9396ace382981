package transport

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/ocube"
)

// This file is the live half of the PR-6 session layer: the paper assumes
// reliable bounded-delay channels (Section 2), and a Session manufactures
// that channel out of a lossy one — per-peer monotonic sequence numbers,
// a sliding-window receiver that drops duplicates, per-frame acks, and
// exponential-backoff retransmission with jitter. A bounded in-flight
// window applies backpressure to senders instead of buffering without
// limit. The simulator hosts its own driver of the same discipline
// (internal/sim, Config.Session) so LossyDelay/PartitionWindow validate
// it deterministically; this one rides any FrameLink — the in-memory
// SessMesh for tests and SessTCP for multi-process deployments, where a
// dropped connection is repaired by SessTCP's lazy redial and the
// retransmit timers replay everything the drop swallowed.

// SessionConfig tunes a reliable session. The zero value selects the
// defaults documented per field.
type SessionConfig struct {
	// Window bounds the unacknowledged frames in flight to one peer;
	// further sends block (backpressure). Default 64.
	Window int
	// RTO is the initial retransmission timeout. Default 50ms; the sim
	// driver's default is derived from the delay bound instead.
	RTO time.Duration
	// MaxRTO caps the exponential backoff. Default 1s.
	MaxRTO time.Duration
	// Jitter is the fraction of the current timeout added as a random
	// extra on every retransmission (decorrelates retransmit storms).
	// Default 0.2.
	Jitter float64
	// Boot is this session's incarnation number. A restarted node must
	// come back with a Boot strictly above any it used before (a
	// persisted counter, or coarse wall-clock at startup): receivers key
	// their dedup window on the sender's boot, so a higher boot resets
	// the window — without it every frame of the fresh incarnation,
	// restarting at Seq 1, would be discarded as a duplicate — and
	// frames from an older boot are dropped outright. Default 1.
	Boot uint64
}

func (c SessionConfig) withDefaults() SessionConfig {
	if c.Window <= 0 {
		c.Window = 64
	}
	if c.RTO <= 0 {
		c.RTO = 50 * time.Millisecond
	}
	if c.MaxRTO <= 0 {
		c.MaxRTO = time.Second
	}
	if c.Jitter <= 0 {
		c.Jitter = 0.2
	}
	if c.Boot == 0 {
		c.Boot = 1
	}
	return c
}

// SessionStats are session-wide reliability counters, the retransmission
// counterpart of MeshStats: how much work the session layer did to make
// the channel look reliable.
type SessionStats struct {
	// Frames counts first transmissions of data frames.
	Frames int64
	// Retransmits counts data frames sent again after a timeout or a
	// failed send.
	Retransmits int64
	// DupDrops counts received data frames discarded as duplicates (the
	// original delivery won; the ack is repeated).
	DupDrops int64
	// AckTimeouts counts retransmission timeouts that expired with the
	// frame still unacknowledged.
	AckTimeouts int64
	// StaleBootDrops counts frames discarded because they carried a boot
	// below the sender's current incarnation — traffic from a dead
	// incarnation still in flight after a restart.
	StaleBootDrops int64
}

// SessFrame is the wire unit of a live session: a data frame carries one
// envelope batch under a per-sender sequence number, a pure ack carries
// Seq 0. Acks are per-frame, not cumulative, so a lost ack costs one
// retransmission rather than a window stall.
type SessFrame struct {
	// From is the sending node.
	From ocube.Pos
	// Boot is an incarnation number: on a data frame, the sender's boot
	// (SessionConfig.Boot); on a pure ack, an echo of the boot of the
	// frame being acknowledged, so a reborn sender ignores acks meant
	// for its previous life. Sequence numbers are scoped to a boot — the
	// receiver resets its dedup window when a peer comes back with a
	// higher boot and drops frames from lower ones.
	Boot uint64
	// Seq numbers data frames per sender starting at 1; 0 marks a pure
	// ack frame.
	Seq uint64
	// Ack acknowledges receipt of the peer's data frame Ack (0 = none);
	// it is meaningful only on pure ack frames (data frames leave it 0).
	Ack uint64
	// Batch is the payload of a data frame.
	Batch []core.Envelope
}

// FrameLink moves session frames between nodes: the unreliable substrate
// a Session builds its reliable channel on.
type FrameLink interface {
	// SendFrame transmits f to node to. An error means the frame may be
	// lost — the session retries; it must not block indefinitely.
	SendFrame(to ocube.Pos, f SessFrame) error
	// RecvFrame returns the channel of inbound frames, closed when the
	// link closes.
	RecvFrame() <-chan SessFrame
	// Close releases resources and unblocks receivers.
	Close() error
}

// sessPeer is one directed peer's session state.
type sessPeer struct {
	// Sender side: frames to this peer.
	nextSeq  uint64
	unacked  map[uint64]*sessOut
	sendSlot chan struct{} // window semaphore

	// Receiver side: frames from this peer.
	recvBoot uint64              // the peer incarnation the window below belongs to
	recvHigh uint64              // every seq ≤ recvHigh was delivered
	recvSeen map[uint64]struct{} // delivered seqs above recvHigh

	// Per-peer slices of the aggregate SessionStats counters (kept here,
	// not in SessionStats, so that struct stays comparable with ==).
	retransmits int64 // data frames re-sent to this peer
	dupDrops    int64 // frames from this peer discarded as duplicates
}

type sessOut struct {
	batch    []core.Envelope
	attempts int
	timer    *time.Timer
}

// Session is a reliable BatchTransport over an unreliable FrameLink:
// exactly-once delivery of every batch that SendBatch accepted, bought
// with retransmission and dedup. Frames may still arrive out of order —
// the protocol tolerates reordering (Section 2 assumes no FIFO).
type Session struct {
	self ocube.Pos
	link FrameLink
	cfg  SessionConfig

	mu      sync.Mutex
	peers   map[ocube.Pos]*sessPeer
	stats   SessionStats
	rng     *rand.Rand
	closed  bool
	pending [][]core.Envelope // received, acked, not yet handed to the app

	out      chan []core.Envelope
	pendingC chan struct{} // wakes deliverLoop; cap 1, best-effort
	recvDone chan struct{} // recvLoop exited (link closed)
	done     chan struct{}
	wg       sync.WaitGroup
}

// NewSession wraps link in a reliable session for node self. The session
// owns the link: Close closes it.
func NewSession(self ocube.Pos, link FrameLink, cfg SessionConfig) *Session {
	s := &Session{
		self:     self,
		link:     link,
		cfg:      cfg.withDefaults(),
		peers:    make(map[ocube.Pos]*sessPeer),
		rng:      rand.New(rand.NewSource(int64(self)*2654435761 + 1)),
		out:      make(chan []core.Envelope, 1024),
		pendingC: make(chan struct{}, 1),
		recvDone: make(chan struct{}),
		done:     make(chan struct{}),
	}
	s.wg.Add(2)
	go s.recvLoop()
	go s.deliverLoop()
	return s
}

// Stats returns a snapshot of the session's reliability counters.
func (s *Session) Stats() SessionStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// PeerStats is the per-peer slice of the session counters: which
// neighbor the retransmits went to and whose frames were dup-dropped.
// It is a separate type (not a map inside SessionStats) so SessionStats
// stays comparable with ==, which existing tests rely on.
type PeerStats struct {
	// Retransmits counts data frames re-sent to this peer.
	Retransmits int64
	// DupDrops counts frames received from this peer and discarded as
	// duplicates.
	DupDrops int64
}

// PeerStats returns a snapshot of the per-peer counter breakdown. The
// per-peer values sum to the aggregate Stats() counters taken under the
// same lock.
func (s *Session) PeerStats() map[ocube.Pos]PeerStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[ocube.Pos]PeerStats, len(s.peers))
	for pos, p := range s.peers {
		if p.retransmits != 0 || p.dupDrops != 0 {
			out[pos] = PeerStats{Retransmits: p.retransmits, DupDrops: p.dupDrops}
		}
	}
	return out
}

func (s *Session) peer(to ocube.Pos) *sessPeer {
	p := s.peers[to]
	if p == nil {
		p = &sessPeer{
			unacked:  make(map[uint64]*sessOut),
			sendSlot: make(chan struct{}, s.cfg.Window),
			recvSeen: make(map[uint64]struct{}),
		}
		s.peers[to] = p
	}
	return p
}

// SendBatch implements BatchTransport: it enqueues the batch for
// exactly-once delivery, blocking while the peer's in-flight window is
// full and returning ErrClosed if the session closes first. The batch is
// copied before returning, so the caller may reuse its buffer.
func (s *Session) SendBatch(to ocube.Pos, batch []core.Envelope) error {
	if len(batch) == 0 {
		return nil
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	p := s.peer(to)
	s.mu.Unlock()

	// Backpressure: one window slot per unacknowledged frame.
	select {
	case p.sendSlot <- struct{}{}:
	case <-s.done:
		return ErrClosed
	}

	owned := make([]core.Envelope, len(batch))
	copy(owned, batch)

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	p.nextSeq++
	seq := p.nextSeq
	out := &sessOut{batch: owned}
	p.unacked[seq] = out
	s.stats.Frames++
	rto := s.backoff(out.attempts)
	out.timer = time.AfterFunc(rto, func() { s.retransmit(to, seq) })
	s.mu.Unlock()

	// A send error means the frame may be lost (e.g. the TCP peer is
	// down); the retransmit timer repairs it after the link re-dials.
	s.link.SendFrame(to, SessFrame{From: s.self, Boot: s.cfg.Boot, Seq: seq, Batch: owned})
	return nil
}

// backoff returns the retransmission timeout for the given attempt
// count: RTO doubled per attempt, capped at MaxRTO, plus jitter.
func (s *Session) backoff(attempts int) time.Duration {
	rto := s.cfg.RTO << uint(attempts)
	if rto <= 0 || rto > s.cfg.MaxRTO {
		rto = s.cfg.MaxRTO
	}
	if j := int64(float64(rto) * s.cfg.Jitter); j > 0 {
		rto += time.Duration(s.rng.Int63n(j + 1))
	}
	return rto
}

// retransmit re-sends frame seq to peer to if it is still unacked.
func (s *Session) retransmit(to ocube.Pos, seq uint64) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	p := s.peers[to]
	out := p.unacked[seq]
	if out == nil {
		s.mu.Unlock()
		return
	}
	out.attempts++
	s.stats.AckTimeouts++
	s.stats.Retransmits++
	p.retransmits++
	rto := s.backoff(out.attempts)
	out.timer = time.AfterFunc(rto, func() { s.retransmit(to, seq) })
	batch := out.batch
	s.mu.Unlock()

	s.link.SendFrame(to, SessFrame{From: s.self, Boot: s.cfg.Boot, Seq: seq, Batch: batch})
}

// recvLoop turns inbound frames into acks and queued deliveries. It
// exits on link closure or session Close — the former matters for links
// whose endpoints are owned elsewhere (SessMesh) and outlive the
// session. Delivery to the app happens in deliverLoop, never here: if
// acking waited on the app consuming RecvBatch, two nodes could
// deadlock — each blocked in a send with a full window, neither
// draining its inbox, so neither's acks ever arrive. Decoupling makes
// the ack path unconditional; the cost is that the queue of
// acked-but-undelivered batches is unbounded (the usual
// reliable-channel idealization — a permanently stalled consumer costs
// memory, not cluster-wide deadlock).
func (s *Session) recvLoop() {
	defer s.wg.Done()
	defer close(s.recvDone)
	for {
		var f SessFrame
		select {
		case got, ok := <-s.link.RecvFrame():
			if !ok {
				return
			}
			f = got
		case <-s.done:
			return
		}
		if f.Seq == 0 {
			if f.Ack != 0 {
				s.onAck(f.From, f.Ack, f.Boot)
			}
			continue // pure ack
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			return
		}
		p := s.peer(f.From)
		if f.Boot < p.recvBoot {
			// A frame from a dead incarnation of the peer; its session is
			// gone, so there is no point acking it either.
			s.stats.StaleBootDrops++
			s.mu.Unlock()
			continue
		}
		if f.Boot > p.recvBoot {
			// The peer was reborn: its sequence space restarted, so the
			// dedup window keyed to the old incarnation must restart too.
			p.recvBoot = f.Boot
			p.recvHigh = 0
			p.recvSeen = make(map[uint64]struct{})
		}
		dup := f.Seq <= p.recvHigh
		if !dup {
			_, dup = p.recvSeen[f.Seq]
		}
		if dup {
			s.stats.DupDrops++
			p.dupDrops++
		} else {
			p.recvSeen[f.Seq] = struct{}{}
			for {
				if _, ok := p.recvSeen[p.recvHigh+1]; !ok {
					break
				}
				delete(p.recvSeen, p.recvHigh+1)
				p.recvHigh++
			}
			s.pending = append(s.pending, f.Batch)
		}
		s.mu.Unlock()
		// Ack unconditionally: a duplicate means the original ack was
		// lost (or is still in flight) and the sender is retransmitting.
		// The ack echoes the frame's boot so only that incarnation
		// retires the frame.
		s.link.SendFrame(f.From, SessFrame{From: s.self, Boot: f.Boot, Ack: f.Seq})
		if !dup {
			select {
			case s.pendingC <- struct{}{}:
			default: // deliverLoop is already awake
			}
		}
	}
}

// deliverLoop hands queued batches to the app. Separated from recvLoop
// so delivery backpressure never stalls ack processing (see recvLoop).
func (s *Session) deliverLoop() {
	defer s.wg.Done()
	defer close(s.out)
	for {
		s.mu.Lock()
		batches := s.pending
		s.pending = nil
		s.mu.Unlock()
		for _, b := range batches {
			select {
			case s.out <- b:
			case <-s.done:
				return
			}
		}
		select {
		case <-s.pendingC:
		case <-s.recvDone:
			// The link closed; flush whatever recvLoop queued last.
			s.mu.Lock()
			rest := s.pending
			s.pending = nil
			s.mu.Unlock()
			for _, b := range rest {
				select {
				case s.out <- b:
				case <-s.done:
					return
				}
			}
			return
		case <-s.done:
			return
		}
	}
}

// onAck retires an acknowledged frame and frees its window slot. Acks
// echoing a different boot are for a previous incarnation's frames —
// this incarnation's frame with the same seq is still outstanding.
func (s *Session) onAck(from ocube.Pos, seq, boot uint64) {
	if boot != s.cfg.Boot {
		return
	}
	s.mu.Lock()
	p := s.peers[from]
	var out *sessOut
	if p != nil {
		out = p.unacked[seq]
		if out != nil {
			delete(p.unacked, seq)
			out.timer.Stop()
		}
	}
	s.mu.Unlock()
	if out != nil {
		select {
		case <-p.sendSlot:
		default:
		}
	}
}

// RecvBatch implements BatchTransport.
func (s *Session) RecvBatch() <-chan []core.Envelope { return s.out }

// Close implements BatchTransport: it stops retransmission, closes the
// underlying link, and unblocks senders and receivers.
func (s *Session) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	for _, p := range s.peers {
		for _, out := range p.unacked {
			out.timer.Stop()
		}
	}
	s.mu.Unlock()
	close(s.done)
	err := s.link.Close()
	s.wg.Wait()
	return err
}

var _ BatchTransport = (*Session)(nil)

// SessMesh is the in-memory FrameLink switchboard: the frame counterpart
// of EnvMesh, with an optional deterministic drop hook so session tests
// inject loss without a real lossy network.
type SessMesh struct {
	mu     sync.Mutex
	boxes  []chan SessFrame
	closed bool
	// Drop, when set, is consulted for every frame; returning true loses
	// it. Set before any traffic flows.
	Drop func(to ocube.Pos, f SessFrame) bool
}

// NewSessMesh builds a mesh of n endpoints with the given per-node frame
// buffer.
func NewSessMesh(n, buffer int) (*SessMesh, error) {
	if n <= 0 {
		return nil, fmt.Errorf("transport: mesh size %d", n)
	}
	if buffer < 1 {
		buffer = 1024
	}
	m := &SessMesh{boxes: make([]chan SessFrame, n)}
	for i := range m.boxes {
		m.boxes[i] = make(chan SessFrame, buffer)
	}
	return m, nil
}

// Endpoint returns node i's frame link.
func (m *SessMesh) Endpoint(i ocube.Pos) FrameLink {
	return &sessMeshEndpoint{mesh: m, self: i}
}

// Close closes every inbox.
func (m *SessMesh) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil
	}
	m.closed = true
	for _, box := range m.boxes {
		close(box)
	}
	return nil
}

// errFrameLost reports a frame the mesh dropped (loss injection or a full
// inbox) — exactly the condition the session's retransmission repairs.
var errFrameLost = errors.New("transport: frame lost")

func (m *SessMesh) send(to ocube.Pos, f SessFrame) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrClosed
	}
	if !to.Valid(len(m.boxes)) {
		return fmt.Errorf("transport: destination %v out of range", to)
	}
	if m.Drop != nil && m.Drop(to, f) {
		return errFrameLost
	}
	select {
	case m.boxes[to] <- f:
		return nil
	default:
		return errFrameLost
	}
}

type sessMeshEndpoint struct {
	mesh *SessMesh
	self ocube.Pos
}

func (e *sessMeshEndpoint) SendFrame(to ocube.Pos, f SessFrame) error { return e.mesh.send(to, f) }

func (e *sessMeshEndpoint) RecvFrame() <-chan SessFrame { return e.mesh.boxes[e.self] }

func (e *sessMeshEndpoint) Close() error { return nil } // owned by the mesh

var _ FrameLink = (*sessMeshEndpoint)(nil)
