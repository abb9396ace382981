package main

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	opencubemx "repro"
	"repro/internal/core"
	"repro/internal/lockspace"
	"repro/internal/ocube"
	"repro/internal/transport"
	"repro/internal/workload"
)

// live-mem and live-tcp: liveClients closed-loop clients, spread evenly
// over liveN lockspace nodes, each looping Lock → FencedResource.Access →
// Unlock on a Zipf-drawn key. live-mem connects the nodes with the
// in-memory EnvMesh, as opencubemx.NewLockspaceCluster does (same mesh
// buffer, no lease); live-tcp with reliable sessions over loopback TCP.
// Either way a decorator counts the envelopes each node sends, which
// the public cluster type does not expose.
const (
	liveN       = 4
	liveClients = 16
	liveKeys    = 4096
	liveZipfS   = 1.1
	liveKeySeq  = 1 << 14 // pre-drawn keys per client, replayed cyclically
	liveWarmup  = time.Second
	liveSetups  = 15 // set-up repetitions behind setup_s
	liveOpLimit = 5 * time.Second
	// The fault-tolerance timeouts are far above any healthy wait, so a
	// healthy run raises no suspicion.
	liveDelta = 100 * time.Millisecond
	liveCS    = 10 * time.Millisecond
	liveSlack = time.Second
)

// liveLayers holds the traced decorators' counters. Every field is
// written from transport goroutines and read after a window ends.
type liveLayers struct {
	meshBatches, meshEnvs, meshNs atomic.Int64
	sessSends, sessNs             atomic.Int64
	tcpFrames, tcpNs              atomic.Int64
}

func (l *liveLayers) reset() {
	for _, c := range []*atomic.Int64{&l.meshBatches, &l.meshEnvs, &l.meshNs, &l.sessSends, &l.sessNs, &l.tcpFrames, &l.tcpNs} {
		c.Store(0)
	}
}

// liveStack is one running cluster.
type liveStack struct {
	nodes    []*lockspace.Lockspace
	envs     atomic.Int64 // envelopes handed to the transport
	mesh     *transport.EnvMesh
	sessions []*transport.Session
	closers  []func() error
}

func (s *liveStack) close() error {
	var first error
	for _, n := range s.nodes {
		if err := n.Close(); err != nil && first == nil {
			first = err
		}
	}
	for _, c := range s.closers {
		if err := c(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

func (s *liveStack) sessionStats() transport.SessionStats {
	var t transport.SessionStats
	for _, se := range s.sessions {
		st := se.Stats()
		t.Frames += st.Frames
		t.Retransmits += st.Retransmits
		t.DupDrops += st.DupDrops
		t.AckTimeouts += st.AckTimeouts
	}
	return t
}

// counted counts the envelopes a lockspace node hands its transport.
type counted struct {
	transport.BatchTransport
	n *atomic.Int64
}

func (c counted) SendBatch(to ocube.Pos, batch []core.Envelope) error {
	c.n.Add(int64(len(batch)))
	return c.BatchTransport.SendBatch(to, batch)
}

// timedMesh times an EnvMesh endpoint's sends.
type timedMesh struct {
	transport.BatchTransport
	l     *liveLayers
	spans *spanRecorder
	n     *atomic.Int64 // this node's batch counter, for span sampling
}

func (t timedMesh) SendBatch(to ocube.Pos, batch []core.Envelope) error {
	start := mono()
	err := t.BatchTransport.SendBatch(to, batch)
	end := mono()
	t.l.meshBatches.Add(1)
	t.l.meshEnvs.Add(int64(len(batch)))
	t.l.meshNs.Add(end - start)
	if sampled(t.n.Add(1)) {
		t.spans.add("transport.mesh.SendBatch", 0, 0, start, end)
	}
	return err
}

// timedSession times a Session's SendBatch, window backpressure
// included. While a sampled send runs, cur holds its span id so the
// frame it transmits is recorded as its child.
type timedSession struct {
	transport.BatchTransport
	l     *liveLayers
	spans *spanRecorder
	n     *atomic.Int64
	cur   *atomic.Int64
}

func (t timedSession) SendBatch(to ocube.Pos, batch []core.Envelope) error {
	var id int64
	if sampled(t.n.Add(1)) {
		id = t.spans.reserve()
		t.cur.Store(id)
	}
	start := mono()
	err := t.BatchTransport.SendBatch(to, batch)
	end := mono()
	t.cur.Store(0)
	t.l.sessSends.Add(1)
	t.l.sessNs.Add(end - start)
	t.spans.put(span{ID: id, Name: "transport.session.SendBatch", Start: start, End: end})
	return err
}

// timedLink times a SessTCP link's SendFrame: gob encoding plus the
// socket write. A data frame with a sequence number the link has not
// carried before is the first transmission made inside the node's
// current Session.SendBatch, so it is recorded as that send's child;
// acks and retransmits come from other goroutines and are roots.
type timedLink struct {
	transport.FrameLink
	l     *liveLayers
	spans *spanRecorder
	cur   *atomic.Int64
	mu    *sync.Mutex
	seen  map[ocube.Pos]uint64 // highest data Seq sent per peer
}

func (t timedLink) SendFrame(to ocube.Pos, f transport.SessFrame) error {
	start := mono()
	err := t.FrameLink.SendFrame(to, f)
	end := mono()
	t.l.tcpFrames.Add(1)
	t.l.tcpNs.Add(end - start)
	if parent := t.cur.Load(); parent != 0 && f.Seq > 0 {
		t.mu.Lock()
		first := f.Seq > t.seen[to]
		t.seen[to] = max(t.seen[to], f.Seq)
		t.mu.Unlock()
		if first {
			t.spans.add("transport.tcp.SendFrame", parent, 0, start, end)
		}
	}
	return err
}

// liveNodeConfig is the per-key state-machine template of node i.
func liveNodeConfig(i int) core.Config {
	return core.Config{
		Self: ocube.Pos(i), P: 2, FT: true,
		Delta: liveDelta, CSEstimate: liveCS, SuspicionSlack: liveSlack,
	}
}

// buildStack starts a cluster; with l set, every layer boundary is timed.
func buildStack(tcp bool, l *liveLayers, spans *spanRecorder) (*liveStack, error) {
	s := &liveStack{}
	trs := make([]transport.BatchTransport, liveN)
	if tcp {
		addrs, err := loopbackAddrs(liveN)
		if err != nil {
			return nil, err
		}
		for i := range trs {
			var link transport.FrameLink
			sl, err := transport.NewSessTCP(ocube.Pos(i), addrs)
			if err != nil {
				s.close()
				return nil, err
			}
			link = sl
			cur := new(atomic.Int64)
			if l != nil {
				link = timedLink{FrameLink: sl, l: l, spans: spans, cur: cur, mu: new(sync.Mutex), seen: map[ocube.Pos]uint64{}}
			}
			sess := transport.NewSession(ocube.Pos(i), link, transport.SessionConfig{})
			s.sessions = append(s.sessions, sess)
			s.closers = append(s.closers, sess.Close)
			trs[i] = sess
			if l != nil {
				trs[i] = timedSession{BatchTransport: sess, l: l, spans: spans, n: new(atomic.Int64), cur: cur}
			}
		}
	} else {
		mesh, err := transport.NewEnvMesh(liveN, 4096)
		if err != nil {
			return nil, err
		}
		s.mesh = mesh
		s.closers = append(s.closers, mesh.Close)
		for i := range trs {
			trs[i] = mesh.Endpoint(ocube.Pos(i))
			if l != nil {
				trs[i] = timedMesh{BatchTransport: trs[i], l: l, spans: spans, n: new(atomic.Int64)}
			}
		}
	}
	for i := range trs {
		node, err := lockspace.New(lockspace.Config{
			Node:      liveNodeConfig(i),
			Transport: counted{BatchTransport: trs[i], n: &s.envs},
		})
		if err != nil {
			s.close()
			return nil, err
		}
		s.nodes = append(s.nodes, node)
	}
	return s, nil
}

// loopbackAddrs reserves n loopback ports.
func loopbackAddrs(n int) (map[ocube.Pos]string, error) {
	addrs := map[ocube.Pos]string{}
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		addrs[ocube.Pos(i)] = ln.Addr().String()
		if err := ln.Close(); err != nil {
			return nil, err
		}
	}
	return addrs, nil
}

// keyNames are the lock keys, by Zipf rank.
var keyNames = func() []string {
	k := make([]string, liveKeys)
	for i := range k {
		k[i] = fmt.Sprintf("key-%04d", i)
	}
	return k
}()

// drawKeys draws every client's key sequence from the seed.
func drawKeys(seed int64) ([][]uint16, error) {
	z, err := workload.NewZipf(liveKeys, liveZipfS)
	if err != nil {
		return nil, err
	}
	seqs := make([][]uint16, liveClients)
	for c := range seqs {
		rng := rand.New(rand.NewSource(workload.ShardSeed(seed, c)))
		seqs[c] = make([]uint16, liveKeySeq)
		for i := range seqs[c] {
			seqs[c][i] = uint16(z.Sample(rng))
		}
	}
	return seqs, nil
}

// window is one measured stretch of closed-loop load on a stack.
type window struct {
	ops, attempted, failed int64
	rates                  []float64 // completed ops per second, per second
	lock, unlock           hist      // latencies, µs
	// lockP50 and lockP90 hold each second's Lock latency quantiles, µs,
	// for the seconds with enough samples to support a p90.
	lockP50, lockP90   []float64
	msgs               int64 // envelopes sent
	wall               time.Duration
	rejected, overlaps int64
	keysTouched        int
}

// drive runs the clients against s for warmup plus d and measures the
// last d. With spans set, one op in spanEvery is recorded as a span tree.
func drive(s *liveStack, keys [][]uint16, d time.Duration, spans *spanRecorder, onStart func()) *window {
	w := &window{}
	resource := opencubemx.NewFencedResource()
	occ := make([]atomic.Int32, liveKeys)
	touched := make([]atomic.Bool, liveKeys)
	var overlaps, done atomic.Int64
	var measuring, stop atomic.Bool
	type clientOut struct {
		attempted, failed int64
	}
	outs := make([]clientOut, liveClients)
	// Clients add Lock latencies to secs[sec] as well as to w.lock; the
	// ticker reads and empties one while the clients fill the other.
	secs := new([2]hist)
	var sec atomic.Int32
	var wg sync.WaitGroup
	for c := 0; c < liveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			node := s.nodes[c%liveN]
			out := &outs[c]
			seq := keys[c]
			for i := 0; !stop.Load(); i++ {
				k := seq[i%len(seq)]
				key := keyNames[k]
				on := measuring.Load()
				req := int64(c)<<40 | int64(i)
				var root int64
				if on && sampled(int64(i)) {
					root = spans.reserve()
				}
				t0 := mono()
				ctx, cancel := context.WithTimeout(context.Background(), liveOpLimit)
				fence, err := node.Lock(ctx, key)
				cancel()
				t1 := mono()
				if on {
					out.attempted++
				}
				if err != nil {
					if on {
						out.failed++
					}
					continue
				}
				if occ[k].Add(1) != 1 {
					overlaps.Add(1)
				}
				touched[k].Store(true)
				_ = resource.Access(key, fence) // a refusal shows in resource.Rejected
				occ[k].Add(-1)
				t2 := mono()
				err = node.Unlock(key, fence)
				t3 := mono()
				if !on {
					continue
				}
				if err != nil {
					out.failed++
					continue
				}
				done.Add(1)
				w.lock.add(float64(t1-t0) / 1e3)
				secs[sec.Load()].add(float64(t1-t0) / 1e3)
				w.unlock.add(float64(t3-t2) / 1e3)
				if root != 0 {
					spans.add("lockspace.Lock", root, req, t0, t1)
					spans.add("resource.Access", root, req, t1, t2)
					spans.add("lockspace.Unlock", root, req, t2, t3)
					spans.put(span{ID: root, Req: req, Name: "client.op", Start: t0, End: t3})
				}
			}
		}(c)
	}

	time.Sleep(liveWarmup)
	if onStart != nil {
		onStart()
	}
	m0 := s.envs.Load()
	start := time.Now()
	measuring.Store(true)
	last, lastAt := done.Load(), start
	tick := time.NewTicker(time.Second)
	for time.Since(start) < d {
		now := <-tick.C
		cur := done.Load()
		w.rates = append(w.rates, float64(cur-last)/now.Sub(lastAt).Seconds())
		i := sec.Load()
		sec.Store(1 - i)
		if h := &secs[i]; supported(h.n.Load(), 0.9) {
			w.lockP50 = append(w.lockP50, h.quantile(0.5))
			w.lockP90 = append(w.lockP90, h.quantile(0.9))
		}
		secs[i].reset()
		last, lastAt = cur, now
	}
	tick.Stop()
	measuring.Store(false)
	w.wall = time.Since(start)
	w.ops = done.Load()
	w.msgs = s.envs.Load() - m0
	stop.Store(true)
	wg.Wait()
	for _, o := range outs {
		w.attempted += o.attempted
		w.failed += o.failed
	}
	w.rejected = resource.Rejected()
	w.overlaps = overlaps.Load()
	for i := range touched {
		if touched[i].Load() {
			w.keysTouched++
		}
	}
	return w
}

// live runs live-mem (tcp false) or live-tcp. A traced run drives an
// untraced stack for the first half of the measured seconds and a traced
// one for the second, so the two halves give the tracing overhead.
func live(o options, tcp bool) (*result, error) {
	res := newResult()
	var setups []float64
	var s *liveStack
	var keys [][]uint16
	for i := 0; i < liveSetups; i++ {
		if s != nil {
			if err := s.close(); err != nil {
				return nil, fmt.Errorf("close: %w", err)
			}
		}
		start := time.Now()
		var err error
		if keys, err = drawKeys(o.seed); err != nil {
			return nil, err
		}
		if s, err = buildStack(tcp, nil, nil); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}

	d := time.Duration(o.seconds) * time.Second
	if o.traced {
		d /= 2
	}
	w := drive(s, keys, d, nil, nil)
	if err := s.close(); err != nil {
		return nil, fmt.Errorf("close: %w", err)
	}
	check := func(w *window) {
		res.attempted += w.attempted
		res.failed += w.failed
		res.check(w.rejected == 0, "fenced resource rejected %d accesses", w.rejected)
		res.check(w.overlaps == 0, "%d critical sections overlapped on a key", w.overlaps)
		res.check(w.ops > 0, "no operations completed")
	}
	check(w)

	m := res.metrics
	if !o.traced {
		lock := w.lock.summary()
		if len(w.lockP90) == 0 || !supported(lock.Count, 0.99) {
			return nil, errNoSamples
		}
		m["setup_s"] = median(setups)
		m["grants_per_s"] = median(w.rates)
		m["msgs_per_grant"] = float64(w.msgs) / float64(w.ops)
		// A stall of a second or two on a shared host moves the run's
		// pooled quantiles; the median second's do not.
		m["wait_p50_ms"] = median(w.lockP50) / 1e3
		m["wait_p90_ms"] = median(w.lockP90) / 1e3
		res.detail["lock_seconds"] = len(w.lockP90)
		res.detail["lock_us"] = lock
		res.detail["ops"] = w.ops
		res.detail["clients"] = liveClients
		res.detail["keys_touched"] = w.keysTouched
		return res, nil
	}

	l := &liveLayers{}
	ts, err := buildStack(tcp, l, o.spans)
	if err != nil {
		return nil, fmt.Errorf("traced set-up: %w", err)
	}
	// The layer counters cover the measured window only.
	var sess0 transport.SessionStats
	var dropped0 int64
	t := drive(ts, keys, d, o.spans, func() {
		l.reset()
		sess0 = ts.sessionStats()
		if ts.mesh != nil {
			dropped0 = ts.mesh.Stats().Dropped
		}
	})
	var states int64
	for _, n := range ts.nodes {
		states += n.States()
	}
	sess := ts.sessionStats()
	sess.Frames -= sess0.Frames
	sess.Retransmits -= sess0.Retransmits
	sess.DupDrops -= sess0.DupDrops
	sess.AckTimeouts -= sess0.AckTimeouts
	var dropped int64
	if ts.mesh != nil {
		dropped = ts.mesh.Stats().Dropped - dropped0
	}
	if err := ts.close(); err != nil {
		return nil, fmt.Errorf("close: %w", err)
	}
	check(t)

	ops := float64(t.ops)
	per := func(total, n int64) float64 {
		if n == 0 {
			return 0
		}
		return float64(total) / float64(n)
	}
	m["lockspace.states"] = float64(states)
	m["lockspace.states_per_key"] = float64(states) / float64(max(1, t.keysTouched))
	m["lockspace.unlock_p50_us"] = t.unlock.quantile(0.5)
	m["bench.trace_overhead"] = (float64(w.ops) / w.wall.Seconds()) / (ops / t.wall.Seconds())
	if tcp {
		m["transport.session.ns_per_send"] = per(l.sessNs.Load(), l.sessSends.Load())
		m["transport.session.self_ns_per_send"] = selfNsPer(selfTimes(o.spans.spans), "transport.session.SendBatch")
		m["transport.session.retransmit_ratio"] = per(sess.Retransmits, sess.Frames)
		m["transport.session.dup_drops"] = float64(sess.DupDrops)
		m["transport.session.ack_timeouts"] = float64(sess.AckTimeouts)
		m["transport.tcp.frames_per_grant"] = float64(l.tcpFrames.Load()) / ops
		m["transport.tcp.ns_per_frame"] = per(l.tcpNs.Load(), l.tcpFrames.Load())
	} else {
		m["transport.mesh.envelopes_per_grant"] = float64(l.meshEnvs.Load()) / ops
		m["transport.mesh.envelopes_per_batch"] = per(l.meshEnvs.Load(), l.meshBatches.Load())
		m["transport.mesh.ns_per_send"] = per(l.meshNs.Load(), l.meshBatches.Load())
		m["transport.mesh.dropped"] = float64(dropped)
	}
	res.detail["ops_untraced"] = w.ops
	res.detail["ops_traced"] = t.ops
	res.detail["span_self_times"] = selfTimes(o.spans.spans)
	res.detail["spans_dropped"] = o.spans.dropped
	return res, nil
}
