package transport

import (
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/ocube"
)

// BatchTransport carries instance-tagged envelopes for one lockspace
// node. The unit of transmission is a batch: everything one event-loop
// iteration produced for the same destination travels as a single frame,
// so a request touching many instances costs one syscall per destination
// instead of one per message — the lockspace's per-destination batching
// rides directly on this seam.
type BatchTransport interface {
	// SendBatch transmits the batch to node to. The callee owns nothing:
	// implementations copy the slice before returning, so callers may
	// reuse their buffers. It must not block indefinitely.
	SendBatch(to ocube.Pos, batch []core.Envelope) error
	// RecvBatch returns the channel of inbound batches. It is closed when
	// the transport closes.
	RecvBatch() <-chan []core.Envelope
	// Close releases resources and unblocks receivers.
	Close() error
}

// EnvMesh is the in-memory batch switchboard connecting the lockspace
// nodes of a single-process cluster.
// One mesh carries the traffic of every instance — the shared-resource
// design the lockspace is built around.
type EnvMesh struct {
	mu      sync.Mutex
	boxes   []chan []core.Envelope
	closed  bool
	sent    int64 // envelopes accepted (not batches)
	dropped int64 // envelopes rejected because the inbox was full
}

// NewEnvMesh builds a mesh of n endpoints with the given per-node batch
// buffer.
func NewEnvMesh(n, buffer int) (*EnvMesh, error) {
	if n <= 0 {
		return nil, fmt.Errorf("transport: mesh size %d", n)
	}
	if buffer < 1 {
		buffer = 1024
	}
	m := &EnvMesh{boxes: make([]chan []core.Envelope, n)}
	for i := range m.boxes {
		m.boxes[i] = make(chan []core.Envelope, buffer)
	}
	return m, nil
}

// Stats returns a snapshot of the mesh-wide delivery counters, counting
// envelopes (a dropped batch counts each envelope it carried).
func (m *EnvMesh) Stats() MeshStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return MeshStats{Sent: m.sent, Dropped: m.dropped}
}

// Endpoint returns node i's transport.
func (m *EnvMesh) Endpoint(i ocube.Pos) BatchTransport {
	return &envMeshEndpoint{mesh: m, self: i}
}

// Close closes every inbox.
func (m *EnvMesh) Close() error {
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

func (m *EnvMesh) send(to ocube.Pos, batch []core.Envelope) error {
	if len(batch) == 0 {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrClosed
	}
	if !to.Valid(len(m.boxes)) {
		return fmt.Errorf("transport: destination %v out of range", to)
	}
	// The sender reuses its buffer; the inbox owns a copy.
	owned := make([]core.Envelope, len(batch))
	copy(owned, batch)
	select {
	case m.boxes[to] <- owned:
		m.sent += int64(len(batch))
		return nil
	default:
		m.dropped += int64(len(batch))
		return fmt.Errorf("transport: inbox of %v full", to)
	}
}

type envMeshEndpoint struct {
	mesh *EnvMesh
	self ocube.Pos
}

func (e *envMeshEndpoint) SendBatch(to ocube.Pos, batch []core.Envelope) error {
	return e.mesh.send(to, batch)
}

func (e *envMeshEndpoint) RecvBatch() <-chan []core.Envelope { return e.mesh.boxes[e.self] }

func (e *envMeshEndpoint) Close() error { return nil } // owned by the mesh

var _ BatchTransport = (*envMeshEndpoint)(nil)
