package main

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/ocube"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// sim-churn: one open cube of N = 2^churnP nodes under E10's parameters
// — Poisson requests concurrent with Poisson crash/recover churn — over
// a horizon long enough for concurrent searches and regenerations to
// dominate the message count, then run on to quiescence.
const (
	delta         = time.Millisecond // δ, virtual
	churnP        = 8
	churnFailGap  = 500 * delta
	churnDown     = 300 * delta
	churnHorizon  = 800_000 * delta
	churnSettle   = 120_000 * delta
	churnSegments = 64 // RunUntil checkpoints over the horizon
	// churnPerSecond is how many instances a measured second buys per
	// core: one instance takes about a second on a 2-core Xeon.
	churnPerSecond = 0.9
)

// churnNodeConfig is E10's node configuration at cube order p: δ, a
// critical-section estimate of δ and a suspicion slack of (24+8p)δ.
func churnNodeConfig(p int) core.Config {
	return core.Config{
		FT:             true,
		Delta:          delta,
		CSEstimate:     delta,
		SuspicionSlack: time.Duration(24+8*p) * delta,
	}
}

// csTime draws critical-section durations uniformly from [0, δ).
func csTime(rng *rand.Rand) time.Duration { return time.Duration(rng.Int63n(int64(delta))) }

// coreTimes accumulates the cost of core.Node calls made through a
// timedPeer.
type coreTimes struct {
	calls      int64
	ns         int64
	timerFires int64
}

// timedPeer forwards every sim.Peer capability of a core.Node and times
// the calls that run protocol steps. Busy, TimerGen and TokenHere are
// forwarded untimed: they read one field.
type timedPeer struct {
	n *core.Node
	t *coreTimes
}

func (p timedPeer) done(start time.Time) {
	p.t.calls++
	p.t.ns += int64(time.Since(start))
}

func (p timedPeer) RequestCS() ([]core.Effect, error) {
	start := time.Now()
	effs, err := p.n.RequestCS()
	p.done(start)
	return effs, err
}

func (p timedPeer) ReleaseCS() ([]core.Effect, error) {
	start := time.Now()
	effs, err := p.n.ReleaseCS()
	p.done(start)
	return effs, err
}

func (p timedPeer) HandleMessage(m core.Message) []core.Effect {
	start := time.Now()
	effs := p.n.HandleMessage(m)
	p.done(start)
	return effs
}

func (p timedPeer) HandleTimer(kind core.TimerKind, gen uint64) []core.Effect {
	start := time.Now()
	effs := p.n.HandleTimer(kind, gen)
	p.done(start)
	p.t.timerFires++
	return effs
}

func (p timedPeer) Recover() []core.Effect {
	start := time.Now()
	effs := p.n.Recover()
	p.done(start)
	return effs
}

func (p timedPeer) Busy() bool                          { return p.n.Busy() }
func (p timedPeer) TimerGen(kind core.TimerKind) uint64 { return p.n.TimerGen(kind) }
func (p timedPeer) TokenHere() bool                     { return p.n.TokenHere() }

var (
	_ sim.TimerPeer      = timedPeer{}
	_ sim.RecoveringPeer = timedPeer{}
	_ sim.TokenPeer      = timedPeer{}
)

// timedOpenCube builds the open-cube algorithm with every node behind a
// timedPeer sharing t.
func timedOpenCube(p int, nc core.Config, t *coreTimes) sim.Algorithm {
	return sim.Algorithm{
		Name: "open-cube (timed)",
		New: func(n int) ([]sim.Peer, error) {
			peers := make([]sim.Peer, n)
			for i := range peers {
				cfg := nc
				cfg.Self = ocube.Pos(i)
				cfg.P = p
				node, err := core.NewNode(cfg)
				if err != nil {
					return nil, err
				}
				peers[i] = timedPeer{n: node, t: t}
			}
			return peers, nil
		},
	}
}

// msgCounts reads the simulated message counters of a run. It is the
// only place the benchmark reads trace.Recorder, so replacing the
// recorder with per-network counters changes this function alone.
func msgCounts(rec *trace.Recorder) (total, control int64) {
	return rec.Total(), rec.ClassCount(trace.ClassControl)
}

// churnRun is one sim-churn instance's outcome.
type churnRun struct {
	accepted  int64 // requests the nodes accepted
	withdrawn int64 // accepted requests whose node crashed before the grant
	granted   int64 // accepted requests that were granted
	grants    int64 // critical sections entered (Network.Grants)
	msgs      int64
	control   int64
	regens    int64
	failures  int64
	fenced    int64 // overlapping grants a fence check tells apart
	visible   int64 // overlapping grants with equal fences
	events    uint64
	pendPeak  int
	quiescent bool
	setup     time.Duration
	wall      time.Duration // run time after setup
	core      coreTimes
}

// exact is the part of a churnRun fixed by its seed.
type churnExact struct {
	accepted, withdrawn, granted, grants, msgs, control, regens, failures, fenced, visible int64
	events                                                                                 uint64
	pendPeak                                                                               int
	quiescent                                                                              bool
}

func (r *churnRun) exact() churnExact {
	return churnExact{r.accepted, r.withdrawn, r.granted, r.grants, r.msgs, r.control, r.regens,
		r.failures, r.fenced, r.visible, r.events, r.pendPeak, r.quiescent}
}

// runChurn runs sim-churn instance inst of the run seeded by seed and
// adds its accept→grant waits, in virtual ms, to waits. With traced set,
// every core.Node call is timed and the instance's phases are recorded
// as spans under a root span for the instance.
func runChurn(seed int64, inst int, horizon time.Duration, traced bool, spans *spanRecorder, waits *hist) (churnRun, error) {
	var out churnRun
	start := time.Now()
	t0 := mono()
	cellSeed := workload.ShardSeed(seed, inst)
	n := 1 << churnP
	rng := rand.New(rand.NewSource(cellSeed))
	reqs := workload.Poisson(rng, n, time.Duration(4*churnP+8)*delta, horizon)
	churn := workload.Churn(rng, n, churnFailGap, churnDown, horizon)

	rec := &trace.Recorder{}
	cfg := sim.Config{
		P:        churnP,
		Seed:     cellSeed,
		Delay:    sim.UniformDelay(delta/2, delta),
		Node:     churnNodeConfig(churnP),
		Recorder: rec,
		CSTime:   csTime,
	}
	if traced {
		cfg.Algorithm = timedOpenCube(churnP, cfg.Node, &out.core)
	}
	w, err := sim.New(cfg)
	if err != nil {
		return out, err
	}

	// crashes[x] lists node x's crash instants, to tell a request its
	// node's crash withdrew from one the protocol never served.
	crashes := make([][]time.Duration, n)
	for _, r := range reqs {
		w.RequestCS(ocube.Pos(r.Node), r.At)
	}
	for _, ev := range churn {
		if ev.Recover {
			w.Recover(ocube.Pos(ev.Node), ev.At)
		} else {
			w.Fail(ocube.Pos(ev.Node), ev.At)
			crashes[ev.Node] = append(crashes[ev.Node], ev.At)
			out.failures++
		}
	}
	crashedSince := func(x ocube.Pos, since time.Duration) bool {
		c := crashes[x]
		i := sort.Search(len(c), func(i int) bool { return c[i] >= since })
		return i < len(c) && c[i] <= w.Eng.Now()
	}
	// Each node has at most one outstanding request, so accepts and
	// grants at a node pair up; a second accept before a grant means the
	// first request was lost, which only a crash may cause.
	pending := make([]time.Duration, n)
	for i := range pending {
		pending[i] = -1
	}
	w.OnRequest(func(x ocube.Pos) {
		out.accepted++
		if at := pending[x]; at >= 0 && crashedSince(x, at) {
			out.withdrawn++
		}
		pending[x] = w.Eng.Now()
	})
	w.OnGrant(func(x ocube.Pos) {
		if at := pending[x]; at >= 0 {
			out.granted++
			waits.add(float64(w.Eng.Now()-at) / float64(time.Millisecond))
			pending[x] = -1
		}
	})
	out.setup = time.Since(start)
	root := spans.reserve()
	spans.add("sim.setup", root, int64(inst)+1, t0, mono())

	run := time.Now()
	for c := 1; c <= churnSegments; c++ {
		s0 := mono()
		w.Eng.RunUntil(horizon * time.Duration(c) / churnSegments)
		out.pendPeak = max(out.pendPeak, w.Eng.Pending())
		spans.add("sim.RunUntil", root, int64(inst)+1, s0, mono())
	}
	s0 := mono()
	out.quiescent = w.RunUntilQuiescent(horizon + churnSettle)
	spans.add("sim.RunUntilQuiescent", root, int64(inst)+1, s0, mono())
	out.wall = time.Since(run)
	spans.put(span{ID: root, Req: int64(inst) + 1, Name: "sim.instance", Start: t0, End: mono()})

	for x, at := range pending {
		if at >= 0 && crashedSince(ocube.Pos(x), at) {
			out.withdrawn++
		}
	}
	out.grants = w.Grants()
	out.msgs, out.control = msgCounts(rec)
	out.regens = w.Regenerations()
	out.fenced, out.visible = w.ViolationsFenced(), w.ViolationsVisible()
	out.events = w.Eng.Steps()
	return out, nil
}

// simChurn runs independently seeded sim-churn instances, as many as the
// measured seconds buy on every core, and pools them: in the storm
// regime one instance's message count swings by a third with its seed.
// Instances run on GOMAXPROCS workers, as the harness runs E10 cells on
// its sweep pool.
func simChurn(o options) (*result, error) {
	const horizon = churnHorizon
	res := newResult()
	workers := runtime.GOMAXPROCS(0)
	runs := make([]churnRun, max(1, int(float64(o.seconds*workers)*churnPerSecond+0.5)))
	waits := new(hist)
	var overhead []float64
	var mallocs uint64
	if !o.traced {
		err := parallel(len(runs), workers, func(i int) (err error) {
			runs[i], err = runChurn(o.seed, i, horizon, false, nil, waits)
			return err
		})
		if err != nil {
			return nil, err
		}
	} else {
		// A quarter as many instances, one at a time, each run untraced
		// and then traced: the untraced run is the reference for the
		// exact counts, the allocations and the tracing overhead.
		runs = runs[:max(1, len(runs)/4)]
		scratch := new(hist)
		var ms runtime.MemStats
		for i := range runs {
			runtime.ReadMemStats(&ms)
			m0 := ms.Mallocs
			r, err := runChurn(o.seed, i, horizon, false, nil, waits)
			if err != nil {
				return nil, fmt.Errorf("instance %d: %w", i, err)
			}
			runtime.ReadMemStats(&ms)
			mallocs += ms.Mallocs - m0
			t, err := runChurn(o.seed, i, horizon, true, o.spans, scratch)
			if err != nil {
				return nil, fmt.Errorf("instance %d: %w", i, err)
			}
			res.check(t.exact() == r.exact(), "instance %d: traced counts %+v differ from untraced %+v", i, t.exact(), r.exact())
			overhead = append(overhead, t.wall.Seconds()/r.wall.Seconds())
			r.core, r.wall = t.core, t.wall
			runs[i] = r
		}
	}

	var total churnRun
	var setups []float64
	for _, r := range runs {
		res.check(r.visible == 0, "%d overlapping grants with equal fences", r.visible)
		res.check(r.quiescent, "an instance did not reach quiescence")
		total.accepted += r.accepted
		total.withdrawn += r.withdrawn
		total.granted += r.granted
		total.grants += r.grants
		total.msgs += r.msgs
		total.control += r.control
		total.regens += r.regens
		total.failures += r.failures
		total.fenced += r.fenced
		total.events += r.events
		total.pendPeak = max(total.pendPeak, r.pendPeak)
		total.wall += r.wall
		total.core.calls += r.core.calls
		total.core.ns += r.core.ns
		total.core.timerFires += r.core.timerFires
		setups = append(setups, r.setup.Seconds())
	}
	res.attempted = total.accepted - total.withdrawn
	// A fenced overlap is an operation a fence-checking resource rejects:
	// it counts as failed, not as a broken run.
	res.failed = res.attempted - total.granted + total.fenced
	res.check(total.grants > 0, "no grants")
	wait := waits.summary()
	if !supported(wait.Count, 0.99) {
		return nil, errNoSamples
	}

	grants, fails := float64(total.grants), float64(max(1, total.failures))
	m := res.metrics
	if !o.traced {
		m["setup_s"] = median(setups)
		// Each worker's simulation time, excluding set-ups and the idle
		// tail while the last instances finish, serves its grants.
		m["grants_per_s"] = grants / (total.wall.Seconds() / float64(workers))
		m["msgs_per_grant"] = float64(total.msgs) / grants
		m["wait_p50_ms"] = wait.P50
		m["wait_p90_ms"] = waits.quantile(0.9)
	} else {
		m["core.calls"] = float64(total.core.calls)
		m["core.ns_per_call"] = float64(total.core.ns) / float64(max(1, total.core.calls))
		m["core.timer_fires"] = float64(total.core.timerFires)
		m["core.control_msgs_per_fail"] = float64(total.control) / fails
		m["core.regens_per_fail"] = float64(total.regens) / fails
		m["sim.events_per_grant"] = float64(total.events) / grants
		m["sim.ns_per_event"] = float64(int64(total.wall)-total.core.ns) / float64(total.events)
		m["sim.pending_peak"] = float64(total.pendPeak)
		m["sim.allocs_per_grant"] = float64(mallocs) / grants
		m["bench.trace_overhead"] = median(overhead)
	}
	res.detail["instances"] = len(runs)
	res.detail["workers"] = workers
	res.detail["horizon_delta"] = int64(horizon / delta)
	res.detail["grants"] = total.grants
	res.detail["msgs"] = total.msgs
	res.detail["events"] = total.events
	res.detail["failures"] = total.failures
	res.detail["regenerations"] = total.regens
	res.detail["withdrawn_by_crash"] = total.withdrawn
	res.detail["fenced_overlaps"] = total.fenced
	res.detail["wait_ms"] = wait
	return res, nil
}

// parallel calls fn(0), …, fn(n-1) on the given number of goroutines
// and returns their errors joined, in index order.
func parallel(n, workers int, fn func(i int) error) error {
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				errs[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}
