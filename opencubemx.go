// Package opencubemx provides fault-tolerant distributed mutual exclusion
// on an open-cube logical tree, reproducing Hélary & Mostefaoui's
// algorithm (INRIA RR-2041, 1993 / ICDCS 1994).
//
// One live runtime serves every entry point: the keyed lockspace
// (internal/lockspace), one event-loop goroutine per node multiplexing
// lazily instantiated per-key open-cube mutexes, with instance-tagged
// envelopes batched per destination on the wire. The entry points differ
// only in the keys they expose and the transport under the nodes:
//
//   - Cluster: an in-process cluster sharing ONE mutex (a lockspace with
//     a single fixed key) over the in-memory EnvMesh. See
//     examples/quickstart, examples/bankledger and examples/failover.
//   - LockspaceCluster: the same in-process cluster exposing the keyed
//     API — every distinct key is its own independent open-cube mutex
//     (Lock(ctx, key) / Unlock(key, fence)), with optional leases. See
//     examples/lockspace.
//   - NewTCPNode: one member of a multi-process cluster sharing one
//     mutex, over reliable sessions (sequence numbers, dedup, acks,
//     retransmission) on TCP sockets — the stack cmd/ocmxchaos deploys
//     and the chaos rig validates. See examples/tcpcluster.
//
// The algorithm guarantees mutual exclusion via a unique token routed on
// a logical tree that always remains an open-cube (a binomial tree), so a
// request costs at most log2(N)+2 messages and ~3/4·log2(N)+5/4 on
// average. With fault tolerance enabled, node fail-stops are detected by
// timeouts and repaired by a local search procedure costing O(log2 N)
// messages on average, including safe token regeneration.
//
// Research artifacts — the deterministic simulator, the experiment
// harness regenerating the paper's tables, and the Raymond/Naimi-Trehel
// baselines — live under internal/ and are exercised by cmd/ocmxbench,
// the repository's benchmarks, and perfbench/ (the end-to-end benchmark
// module, bash perfbench/run.sh). The simulator runs the same core.Node
// state machine on a deterministic typed-event engine that replays
// bit-for-bit from a seed (see DESIGN.md §8).
package opencubemx

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"time"

	"repro/internal/core"
	"repro/internal/lockspace"
	"repro/internal/metrics"
	"repro/internal/ocube"
	"repro/internal/transport"
)

// Option customizes a Cluster, LockspaceCluster or TCPNode.
type Option func(*options)

type options struct {
	node  core.Config
	lease time.Duration
}

func collectOptions(opts []Option) options {
	var o options
	for _, opt := range opts {
		opt(&o)
	}
	return o
}

// WithFaultTolerance enables the failure-handling layer (Section 5 of the
// paper): delta is the assumed maximum message delay δ, csEstimate the
// expected critical-section duration e, and slack the extra margin added
// to every suspicion timeout (it should exceed the longest legitimate
// queueing wait).
func WithFaultTolerance(delta, csEstimate, slack time.Duration) Option {
	return func(o *options) {
		o.node.FT = true
		o.node.Delta = delta
		o.node.CSEstimate = csEstimate
		o.node.SuspicionSlack = slack
	}
}

// WithPolicy selects a general-scheme behavior policy; the default is the
// paper's open-cube rule. The Raymond and Naimi-Trehel instances are
// provided for experimentation.
func WithPolicy(p core.Policy) Option {
	return func(o *options) { o.node.Policy = p }
}

// WithLeaseTTL bounds how long a lockspace hold stays valid without
// renewal. It applies to LockspaceCluster only; Cluster and TCPNode
// ignore it, because Mutex.Unlock carries no fence and Mutex has no
// Keepalive, so a single-mutex holder could neither renew its lease nor
// learn that it lapsed. A holder that neither Unlocks nor Keepalives
// within ttl has its hold reclaimed and the key re-granted to the next
// waiter; the expired holder's later Unlock/Keepalive reports
// lockspace.ErrLeaseExpired, and its fence is stale at every
// FencedResource a newer holder has touched. Combine with
// WithFaultTolerance so a crashed *node* (not just a silent client) also
// releases its keys.
func WithLeaseTTL(ttl time.Duration) Option {
	return func(o *options) { o.lease = ttl }
}

// mutexKey is the one lockspace key behind the single-mutex API (Cluster
// and TCPNode). Every member derives its instance id from it, so it is
// part of the wire format.
const mutexKey = "opencubemx.Mutex"

// nodeConfig is the state-machine template of position self in an
// n-member cluster.
func nodeConfig(o options, self, n int) core.Config {
	cfg := o.node
	cfg.Self = ocube.Pos(self)
	cfg.P = bits.TrailingZeros(uint(n))
	return cfg
}

// meshCluster is the in-process runtime behind Cluster and
// LockspaceCluster: n lockspace nodes over one in-memory EnvMesh.
type meshCluster struct {
	mesh  *transport.EnvMesh
	nodes []*lockspace.Lockspace
}

func newMeshCluster(n int, o options) (meshCluster, error) {
	if n <= 0 || n&(n-1) != 0 {
		return meshCluster{}, fmt.Errorf("opencubemx: cluster size %d is not a power of two", n)
	}
	mesh, err := transport.NewEnvMesh(n, 4096)
	if err != nil {
		return meshCluster{}, err
	}
	c := meshCluster{mesh: mesh}
	for i := 0; i < n; i++ {
		node, err := lockspace.New(lockspace.Config{
			Node:      nodeConfig(o, i, n),
			Transport: mesh.Endpoint(ocube.Pos(i)),
			LeaseTTL:  o.lease,
		})
		if err != nil {
			c.close()
			return meshCluster{}, err
		}
		c.nodes = append(c.nodes, node)
	}
	return c, nil
}

// node returns node i, range-checked.
func (c meshCluster) node(i int) (*lockspace.Lockspace, error) {
	if i < 0 || i >= len(c.nodes) {
		return nil, fmt.Errorf("opencubemx: node %d out of range [0,%d)", i, len(c.nodes))
	}
	return c.nodes[i], nil
}

// close stops every node and the transport fabric.
func (c meshCluster) close() error {
	var firstErr error
	for _, n := range c.nodes {
		if err := n.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if err := c.mesh.Close(); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}

// Cluster is an in-process group of 2^p nodes sharing one mutual
// exclusion token: a lockspace cluster serving a single fixed key.
type Cluster struct {
	mc meshCluster
}

// NewCluster starts an n-node cluster; n must be a power of two (the
// open-cube structure requires it — run a non-power-of-two membership by
// rounding up and leaving the spare positions unused with fault tolerance
// enabled). WithLeaseTTL is ignored.
func NewCluster(n int, opts ...Option) (*Cluster, error) {
	o := collectOptions(opts)
	o.lease = 0 // Mutex.Unlock carries no fence: no lease to renew or check
	mc, err := newMeshCluster(n, o)
	if err != nil {
		return nil, err
	}
	return &Cluster{mc: mc}, nil
}

// N returns the cluster size.
func (c *Cluster) N() int { return len(c.mc.nodes) }

// Mutex returns node i's handle on the distributed mutex.
func (c *Cluster) Mutex(i int) (*Mutex, error) {
	node, err := c.mc.node(i)
	if err != nil {
		return nil, err
	}
	return &Mutex{node: node}, nil
}

// Kill simulates a fail-stop crash of node i: its event loop stops
// immediately, its Mutex's Lock and Unlock report an error, and every
// message sent to it from now on is lost, exactly the failure model of
// the paper's Section 5. With fault tolerance enabled the surviving nodes
// detect the crash by timeout and repair the tree. Intended for failure
// drills and tests.
func (c *Cluster) Kill(i int) error {
	node, err := c.mc.node(i)
	if err != nil {
		return err
	}
	return node.Close()
}

// Close stops every node and the transport fabric.
func (c *Cluster) Close() error { return c.mc.close() }

// Mutex is one node's handle on the cluster-wide mutual exclusion token.
// It intentionally mirrors sync.Mutex's shape, with context support:
// Locks on the same node queue FIFO behind each other (a second Lock
// waits for the first holder's Unlock), and Unlock releases the node's
// current hold whichever goroutine took it.
type Mutex struct {
	node *lockspace.Lockspace
}

// Lock blocks until this node holds the token (and thus the exclusive
// right to the critical section) or ctx is done. On cancellation the
// caller leaves the wait queue; a grant that raced the cancellation is
// released immediately.
func (m *Mutex) Lock(ctx context.Context) error {
	_, err := m.node.Lock(ctx, mutexKey)
	return err
}

// LockFenced is Lock returning the grant's fencing token: strictly
// increasing across the grants of one token lineage, with a regenerated
// token outranking any copy it replaces, so fence-comparing resources
// reject accesses from a holder whose grant is stale.
func (m *Mutex) LockFenced(ctx context.Context) (uint64, error) {
	return m.node.Lock(ctx, mutexKey)
}

// Unlock releases the critical section, returning the token to its
// lender or keeping it if this node became the tree root, and hands the
// mutex to the node's next queued Lock, if any. It reports an error when
// the node holds no lock.
func (m *Mutex) Unlock() error { return m.node.Unlock(mutexKey, 0) }

// LockspaceCluster is an in-process group of 2^p nodes sharing a keyed
// lock-space: every distinct key names an independent open-cube mutex,
// lazily instantiated on first touch and multiplexed with every other
// key's instance over one shared runtime (one goroutine and one
// transport endpoint per node, envelopes batched per destination). The
// paper's per-critical-section message bound holds per key.
type LockspaceCluster struct {
	mc meshCluster
}

// NewLockspaceCluster starts an n-node keyed lock service; n must be a
// power of two. Position 0 holds every key's initial token.
func NewLockspaceCluster(n int, opts ...Option) (*LockspaceCluster, error) {
	mc, err := newMeshCluster(n, collectOptions(opts))
	if err != nil {
		return nil, err
	}
	return &LockspaceCluster{mc: mc}, nil
}

// N returns the cluster size.
func (c *LockspaceCluster) N() int { return len(c.mc.nodes) }

// Lockspace returns node i's handle on the keyed lock service.
func (c *LockspaceCluster) Lockspace(i int) (*Lockspace, error) {
	node, err := c.mc.node(i)
	if err != nil {
		return nil, err
	}
	return &Lockspace{node: node}, nil
}

// Close stops every node and the transport fabric.
func (c *LockspaceCluster) Close() error { return c.mc.close() }

// Lockspace is one node's handle on the keyed lock service: a named
// mutex per key, each as strong as the single Mutex. Clients on the same
// node queue FIFO behind each other per key.
type Lockspace struct {
	node *lockspace.Lockspace
}

// Lock blocks until this node holds key's lock or ctx is done, and
// returns the hold's fencing token: strictly increasing per key across
// re-grants, so a resource that remembers the highest fence it has seen
// (see FencedResource) rejects writes from any holder whose lock has
// since expired or been re-granted. On cancellation the caller leaves
// the wait queue; a grant that raced the cancellation is released
// immediately.
func (l *Lockspace) Lock(ctx context.Context, key string) (uint64, error) {
	return l.node.Lock(ctx, key)
}

// Unlock releases the hold on key that fence names (the value Lock
// returned; 0 releases whatever hold is current). It reports
// lockspace.ErrLeaseExpired when that hold already lapsed and was
// reclaimed.
func (l *Lockspace) Unlock(key string, fence uint64) error { return l.node.Unlock(key, fence) }

// Keepalive renews the lease on the hold that fence names, postponing
// its expiry by the cluster's WithLeaseTTL. Holders doing long critical
// sections heartbeat with it; a holder that stops heartbeating loses the
// key after one TTL.
func (l *Lockspace) Keepalive(key string, fence uint64) error { return l.node.Keepalive(key, fence) }

// ErrStaleFence is returned by FencedResource.Access for a fence below
// the resource's high-water mark: the caller's lock expired or was
// re-granted after the access began, and a newer holder got here first.
var ErrStaleFence = errors.New("opencubemx: stale fence")

// FencedResource is a test helper modeling a storage system that honors
// fencing tokens: each access must present the fence of a current lock
// hold (Lock/LockFenced's return value), and any access under a fence
// below the highest one the resource has admitted for that key is
// rejected. It is how an application makes a lapsed lease or an
// out-of-model duplicate token harmless — the stale holder's writes
// bounce off the resource even though it still believes it holds the
// lock. Safe for concurrent use; the zero value is not ready, use
// NewFencedResource.
type FencedResource struct {
	gate *metrics.FenceGate
}

// NewFencedResource builds an empty fenced resource.
func NewFencedResource() *FencedResource {
	return &FencedResource{gate: &metrics.FenceGate{}}
}

// Access admits one access to key under fence, raising the key's
// high-water mark; it returns ErrStaleFence for a fence below the mark
// (or a zero fence — unfenced access is never admitted).
func (r *FencedResource) Access(key string, fence uint64) error {
	if !r.gate.Admit(key, fence) {
		return fmt.Errorf("%w: key %q fence %d", ErrStaleFence, key, fence)
	}
	return nil
}

// Rejected returns how many accesses were refused as stale.
func (r *FencedResource) Rejected() int64 { return r.gate.Rejected() }

// ErrBadMembership reports an invalid TCP membership table.
var ErrBadMembership = errors.New("opencubemx: membership size is not a power of two")

// TCPNode is one cluster member communicating over TCP: a lockspace
// node serving the single-mutex key over a reliable session (sequence
// numbers, dedup, acks and retransmission) on gob-encoded TCP frames —
// the stack cmd/ocmxchaos deploys, without its stable storage, rejoin
// and leases. Frames on the wire are transport.SessFrame values, so
// every member of a cluster must run the same release.
//
// Membership is fixed at start. A member cannot rejoin a running cluster
// after a restart: its fresh session restarts its sequence numbers under
// the same incarnation, so peers discard its frames as duplicates, and
// its state machine would start from the cluster-birth conditions
// (position 0 holding the token). Restart the whole cluster instead.
type TCPNode struct {
	node *lockspace.Lockspace
	link *transport.SessTCP
	sess *transport.Session
}

// NewTCPNode starts node self of a cluster whose members listen at the
// given addresses (index = node position; the length must be a power of
// two). Position 0 holds the initial token. WithLeaseTTL is ignored.
func NewTCPNode(self int, addrs []string, opts ...Option) (*TCPNode, error) {
	n := len(addrs)
	if n <= 0 || n&(n-1) != 0 {
		return nil, ErrBadMembership
	}
	if self < 0 || self >= n {
		return nil, fmt.Errorf("opencubemx: self %d out of range", self)
	}
	table := make(map[ocube.Pos]string, n)
	for i, a := range addrs {
		table[ocube.Pos(i)] = a
	}
	link, err := transport.NewSessTCP(ocube.Pos(self), table)
	if err != nil {
		return nil, err
	}
	sess := transport.NewSession(ocube.Pos(self), link, transport.SessionConfig{})
	node, err := lockspace.New(lockspace.Config{
		Node:      nodeConfig(collectOptions(opts), self, n),
		Transport: sess,
	})
	if err != nil {
		sess.Close()
		return nil, err
	}
	return &TCPNode{node: node, link: link, sess: sess}, nil
}

// Mutex returns the node's mutex handle.
func (t *TCPNode) Mutex() *Mutex { return &Mutex{node: t.node} }

// Addr returns the node's bound listen address.
func (t *TCPNode) Addr() string { return t.link.Addr() }

// Close stops the node, then its session and the TCP link under it.
func (t *TCPNode) Close() error {
	err := t.node.Close()
	if serr := t.sess.Close(); err == nil {
		err = serr
	}
	return err
}
