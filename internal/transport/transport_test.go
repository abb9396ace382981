package transport

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ocube"
)

// Link-level tests of the two FrameLinks, with no session on top, so
// every loss, drop and redial is visible to the test: SessMesh (the
// in-memory switchboard the chaos rig runs on) and SessTCP (raw frames
// over loopback sockets).

func TestNewMeshValidation(t *testing.T) {
	if _, err := NewSessMesh(0, 1); err == nil {
		t.Error("NewSessMesh(0) succeeded")
	}
	if _, err := NewSessMesh(-1, 1); err == nil {
		t.Error("NewSessMesh(-1) succeeded")
	}
	m, err := NewSessMesh(2, 0) // buffer clamped to default
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if got := cap(m.boxes[0]); got != 1024 {
		t.Errorf("clamped buffer = %d, want 1024", got)
	}
}

func TestMeshRoundTrip(t *testing.T) {
	m, err := NewSessMesh(3, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	want := dataFrame(0, 7)
	if err := m.Endpoint(0).SendFrame(1, want); err != nil {
		t.Fatal(err)
	}
	if got := <-m.Endpoint(1).RecvFrame(); !reflect.DeepEqual(got, want) {
		t.Errorf("got %+v, want %+v", got, want)
	}
}

func TestMeshBadDestination(t *testing.T) {
	m, err := NewSessMesh(2, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if err := m.Endpoint(0).SendFrame(9, dataFrame(0, 1)); err == nil || err == errFrameLost {
		t.Errorf("send to out-of-range destination = %v, want an addressing error", err)
	}
}

func TestMeshOverflow(t *testing.T) {
	m, err := NewSessMesh(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	e := m.Endpoint(0)
	if err := e.SendFrame(1, dataFrame(0, 1)); err != nil {
		t.Fatal(err)
	}
	// A full inbox loses the frame and says so: the session's cue to
	// retransmit.
	if err := e.SendFrame(1, dataFrame(0, 2)); err != errFrameLost {
		t.Errorf("overflowing send = %v, want errFrameLost", err)
	}
	// So does the loss-injection hook.
	m.Drop = func(to ocube.Pos, f SessFrame) bool { return f.Seq == 3 }
	<-m.Endpoint(1).RecvFrame()
	if err := e.SendFrame(1, dataFrame(0, 3)); err != errFrameLost {
		t.Errorf("dropped send = %v, want errFrameLost", err)
	}
	if err := e.SendFrame(1, dataFrame(0, 4)); err != nil {
		t.Errorf("send after drop = %v, want delivery", err)
	}
}

func TestMeshClosed(t *testing.T) {
	m, err := NewSessMesh(2, 4)
	if err != nil {
		t.Fatal(err)
	}
	e := m.Endpoint(0)
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Errorf("double close: %v", err)
	}
	if err := e.SendFrame(1, dataFrame(0, 1)); err != ErrClosed {
		t.Errorf("send after close = %v, want ErrClosed", err)
	}
	if _, ok := <-m.Endpoint(1).RecvFrame(); ok {
		t.Error("recv channel not closed")
	}
	if err := e.Close(); err != nil {
		t.Errorf("endpoint close: %v", err)
	}
}

func tcpPair(t *testing.T) (*SessTCP, *SessTCP) {
	t.Helper()
	addrs := reserveLoopbackAddrs(t, 2)
	a, err := NewSessTCP(0, addrs)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewSessTCP(1, addrs)
	if err != nil {
		a.Close()
		t.Fatal(err)
	}
	return a, b
}

func dataFrame(from ocube.Pos, seq uint64) SessFrame {
	return SessFrame{From: from, Boot: 1, Seq: seq, Batch: []core.Envelope{{
		Instance: seq,
		Msg:      core.Message{Kind: core.KindRequest, From: from, To: 1 - from, Seq: seq},
	}}}
}

func recvFrame(t *testing.T, l *SessTCP) SessFrame {
	t.Helper()
	select {
	case f := <-l.RecvFrame():
		return f
	case <-time.After(10 * time.Second):
		t.Fatal("timeout")
		return SessFrame{}
	}
}

func TestTCPRoundTrip(t *testing.T) {
	a, b := tcpPair(t)
	defer a.Close()
	defer b.Close()
	want := dataFrame(0, 3)
	if err := a.SendFrame(1, want); err != nil {
		t.Fatal(err)
	}
	if got := recvFrame(t, b); !reflect.DeepEqual(got, want) {
		t.Errorf("got %+v, want %+v", got, want)
	}
	// And the reverse direction (b dials back): a pure ack frame.
	back := SessFrame{From: 1, Boot: 1, Ack: 3}
	if err := b.SendFrame(0, back); err != nil {
		t.Fatal(err)
	}
	if got := recvFrame(t, a); !reflect.DeepEqual(got, back) {
		t.Errorf("got %+v, want %+v", got, back)
	}
}

func TestTCPErrors(t *testing.T) {
	if _, err := NewSessTCP(0, map[ocube.Pos]string{1: "127.0.0.1:0"}); err == nil {
		t.Error("NewSessTCP without self address succeeded")
	}
	a, b := tcpPair(t)
	defer b.Close()
	if err := a.SendFrame(5, dataFrame(0, 1)); err == nil {
		t.Error("send to unknown peer succeeded")
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Errorf("double close: %v", err)
	}
	if err := a.SendFrame(1, dataFrame(0, 1)); err != ErrClosed {
		t.Errorf("send after close = %v, want ErrClosed", err)
	}
	if _, ok := <-a.RecvFrame(); ok {
		t.Error("recv channel not closed")
	}
}

func TestTCPRedialAfterPeerRestart(t *testing.T) {
	a, b := tcpPair(t)
	defer a.Close()
	addr := b.Addr()
	if err := a.SendFrame(1, dataFrame(0, 1)); err != nil {
		t.Fatal(err)
	}
	recvFrame(t, b)
	b.Close()
	// Sends now fail (peer down) until it comes back; the first may hit
	// the cached dead connection.
	_ = a.SendFrame(1, dataFrame(0, 2))

	b2, err := NewSessTCP(1, map[ocube.Pos]string{0: a.Addr(), 1: addr})
	if err != nil {
		t.Fatal(err)
	}
	defer b2.Close()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if err := a.SendFrame(1, dataFrame(0, 3)); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("never reconnected")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if got := recvFrame(t, b2); got.Seq != 3 {
		t.Errorf("got seq %d, want 3", got.Seq)
	}
}

// TestSessTCPStatsCountsOverflow floods a receiver nobody drains: the
// inbox fills and every further frame is dropped, and each frame that
// reached the link must show up in exactly one of Sent and Dropped.
func TestSessTCPStatsCountsOverflow(t *testing.T) {
	a, b := tcpPair(t)
	defer a.Close()
	defer b.Close()
	const frames = 3000 // well past the 1024-frame inbox
	for i := 1; i <= frames; i++ {
		if err := a.SendFrame(1, dataFrame(0, uint64(i))); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	var st MeshStats
	for {
		st = b.Stats()
		if st.Sent+st.Dropped == frames {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("Stats = %+v, want Sent+Dropped = %d", st, frames)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st.Sent != int64(cap(b.inbox)) || st.Dropped != frames-st.Sent {
		t.Errorf("Stats = %+v, want Sent = %d (inbox capacity), the rest Dropped", st, cap(b.inbox))
	}
	if got := a.Stats(); got != (MeshStats{}) {
		t.Errorf("sender Stats = %+v, want zero (counters are inbound)", got)
	}
}
