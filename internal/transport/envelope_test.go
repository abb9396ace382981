package transport

import (
	"reflect"
	"testing"

	"repro/internal/core"
)

func envBatch(inst uint64, n int) []core.Envelope {
	out := make([]core.Envelope, n)
	for i := range out {
		out[i] = core.Envelope{
			Instance: inst + uint64(i),
			Msg:      core.Message{Kind: core.KindRequest, From: 0, To: 1, Target: 1, Source: 0, Seq: uint64(7 + i)},
		}
	}
	return out
}

func TestEnvMeshRoundTripAndBufferReuse(t *testing.T) {
	m, err := NewEnvMesh(3, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	a, b := m.Endpoint(0), m.Endpoint(1)
	batch := envBatch(5, 3)
	want := append([]core.Envelope(nil), batch...)
	if err := a.SendBatch(1, batch); err != nil {
		t.Fatal(err)
	}
	// The sender may reuse its buffer immediately: the mesh must have
	// copied the batch.
	batch[0].Instance = 999
	got := <-b.RecvBatch()
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %v, want %v", got, want)
	}
	if stats := m.Stats(); stats.Sent != 3 || stats.Dropped != 0 {
		t.Errorf("stats = %+v, want 3 sent", stats)
	}
}

func TestEnvMeshOverflowAndErrors(t *testing.T) {
	m, err := NewEnvMesh(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	ep := m.Endpoint(0)
	if err := ep.SendBatch(1, envBatch(1, 2)); err != nil {
		t.Fatal(err)
	}
	if err := ep.SendBatch(1, envBatch(1, 4)); err == nil {
		t.Error("overflowing batch send succeeded")
	}
	if stats := m.Stats(); stats.Sent != 2 || stats.Dropped != 4 {
		t.Errorf("stats = %+v, want 2 sent 4 dropped (envelopes, not batches)", stats)
	}
	if err := ep.SendBatch(9, envBatch(1, 1)); err == nil {
		t.Error("send to out-of-range destination succeeded")
	}
	if err := ep.SendBatch(1, nil); err != nil {
		t.Errorf("empty batch send = %v, want nil", err)
	}
	if _, err := NewEnvMesh(0, 1); err == nil {
		t.Error("NewEnvMesh(0) succeeded")
	}
}

func TestEnvMeshClosed(t *testing.T) {
	m, err := NewEnvMesh(2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Errorf("double close: %v", err)
	}
	if err := m.Endpoint(0).SendBatch(1, envBatch(1, 1)); err != ErrClosed {
		t.Errorf("send on closed mesh = %v, want ErrClosed", err)
	}
	if _, ok := <-m.Endpoint(1).RecvBatch(); ok {
		t.Error("recv channel not closed")
	}
}
