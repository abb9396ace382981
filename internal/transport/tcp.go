package transport

import (
	"encoding/gob"
	"fmt"
	"net"
	"sync"
	"sync/atomic"

	"repro/internal/ocube"
)

// SessTCP is a FrameLink over TCP sockets with one gob-encoded session
// frame per wire frame. Pair it with NewSession for a reliable
// multi-process BatchTransport: each node listens on its own address and
// dials peers lazily, outbound connections are cached and serialized per
// peer, a dropped connection is re-dialed by the next send, and the
// session's retransmission replays whatever the drop swallowed — as it
// does for a frame that arrives to a full inbox, which is dropped and
// counted (Stats). Production hardening (TLS, reconnection backoff) is
// out of scope for the reproduction.
type SessTCP struct {
	addrs map[ocube.Pos]string

	listener net.Listener
	inbox    chan SessFrame

	delivered atomic.Int64 // frames accepted into the inbox
	dropped   atomic.Int64 // frames dropped because the inbox was full

	mu       sync.Mutex
	conns    map[ocube.Pos]*peerConn
	accepted map[net.Conn]bool
	closed   bool
	wg       sync.WaitGroup
}

type peerConn struct {
	mu   sync.Mutex
	conn net.Conn
	enc  *gob.Encoder
}

// NewSessTCP starts a session frame link for self, listening on
// addrs[self].
func NewSessTCP(self ocube.Pos, addrs map[ocube.Pos]string) (*SessTCP, error) {
	addr, ok := addrs[self]
	if !ok {
		return nil, fmt.Errorf("transport: no address for self %v", self)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	t := &SessTCP{
		addrs:    make(map[ocube.Pos]string, len(addrs)),
		listener: ln,
		// Room for a full session window from each of many peers;
		// beyond it frames are dropped, counted, and retransmitted.
		inbox:    make(chan SessFrame, 1024),
		conns:    make(map[ocube.Pos]*peerConn),
		accepted: make(map[net.Conn]bool),
	}
	for k, v := range addrs {
		t.addrs[k] = v
	}
	t.wg.Add(1)
	go t.acceptLoop()
	return t, nil
}

// Addr returns the bound listen address (useful with ":0" ports).
func (t *SessTCP) Addr() string { return t.listener.Addr().String() }

// Stats returns the link's inbound delivery counters: Sent counts frames
// accepted into the inbox, Dropped counts frames that arrived to a full
// inbox and were discarded (the session retransmits them).
func (t *SessTCP) Stats() MeshStats {
	return MeshStats{Sent: t.delivered.Load(), Dropped: t.dropped.Load()}
}

func (t *SessTCP) acceptLoop() {
	defer t.wg.Done()
	for {
		conn, err := t.listener.Accept()
		if err != nil {
			return // listener closed
		}
		t.mu.Lock()
		if t.closed {
			t.mu.Unlock()
			conn.Close()
			return
		}
		t.accepted[conn] = true
		t.mu.Unlock()
		t.wg.Add(1)
		go t.readLoop(conn)
	}
}

func (t *SessTCP) readLoop(conn net.Conn) {
	defer t.wg.Done()
	defer func() {
		conn.Close()
		t.mu.Lock()
		delete(t.accepted, conn)
		t.mu.Unlock()
	}()
	dec := gob.NewDecoder(conn)
	for {
		var f SessFrame
		if err := dec.Decode(&f); err != nil {
			return
		}
		t.mu.Lock()
		closed := t.closed
		t.mu.Unlock()
		if closed {
			return
		}
		select {
		case t.inbox <- f:
			t.delivered.Add(1)
		default:
			// Inbox overflow: the frame is lost, exactly the condition
			// the session's retransmission repairs.
			t.dropped.Add(1)
		}
	}
}

// SendFrame implements FrameLink: it gob-encodes one frame to the peer,
// dialing lazily.
func (t *SessTCP) SendFrame(to ocube.Pos, frame SessFrame) error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return ErrClosed
	}
	pc := t.conns[to]
	if pc == nil {
		addr, ok := t.addrs[to]
		if !ok {
			t.mu.Unlock()
			return fmt.Errorf("transport: no address for %v", to)
		}
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.mu.Unlock()
			return fmt.Errorf("transport: dial %v: %w", to, err)
		}
		pc = &peerConn{conn: conn, enc: gob.NewEncoder(conn)}
		t.conns[to] = pc
	}
	t.mu.Unlock()

	pc.mu.Lock()
	defer pc.mu.Unlock()
	if err := pc.enc.Encode(frame); err != nil {
		// Drop the broken connection; the next send re-dials.
		t.mu.Lock()
		if t.conns[to] == pc {
			delete(t.conns, to)
		}
		t.mu.Unlock()
		pc.conn.Close()
		return fmt.Errorf("transport: send to %v: %w", to, err)
	}
	return nil
}

// RecvFrame implements FrameLink.
func (t *SessTCP) RecvFrame() <-chan SessFrame { return t.inbox }

// Close implements FrameLink: it shuts the listener, every connection,
// and the inbox.
func (t *SessTCP) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	conns := t.conns
	t.conns = map[ocube.Pos]*peerConn{}
	accepted := make([]net.Conn, 0, len(t.accepted))
	for c := range t.accepted {
		accepted = append(accepted, c) //ocmxvet:allow mapiter -- teardown only: the order sockets are closed in is unobservable
	}
	t.mu.Unlock()

	err := t.listener.Close()
	for _, pc := range conns {
		pc.conn.Close()
	}
	for _, c := range accepted {
		c.Close()
	}
	t.wg.Wait()
	close(t.inbox)
	return err
}

var _ FrameLink = (*SessTCP)(nil)
