// Package transport carries lockspace envelope batches between live
// nodes — the communication system the paper assumes reliable with a
// bounded transmission delay δ (Section 2). Every live node speaks
// BatchTransport, and two families implement it: EnvMesh, an in-memory
// switchboard for single-process clusters (examples, tests,
// benchmarks), and Session, a reliable channel (sequence numbers, dedup,
// acks, retransmission) over an unreliable FrameLink — the in-memory
// SessMesh for tests, or SessTCP's gob-encoded frames over TCP sockets
// for multi-process deployments (examples/tcpcluster, cmd/ocmxchaos).
package transport

import "errors"

// ErrClosed is returned by Send after Close.
var ErrClosed = errors.New("transport: closed")

// MeshStats are delivery counters. A nonzero Dropped means an inbox
// overflowed: the message was lost — the lockspace treats a failed send
// as message loss (the protocol's failure machinery absorbs it), and a
// session retransmits — so the counter is how an operator tells
// sustained overflow from a healthy transport.
type MeshStats struct {
	// Sent counts messages accepted into an inbox.
	Sent int64
	// Dropped counts messages rejected because the destination inbox was
	// full.
	Dropped int64
}
