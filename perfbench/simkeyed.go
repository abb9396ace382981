package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/lockspace"
	"repro/internal/ocube"
	"repro/internal/shard"
	"repro/internal/sim"
	"repro/internal/workload"
)

// sim-keyed: the sharded simulated lockspace under E13's parameters — a
// Zipf-skewed key population, each key its own open cube, with one crash
// in the shard owning the hottest key — on one shard worker.
const (
	keyedP          = 6
	keyedKeys       = 65536
	keyedZipfS      = 1.1
	keyedReqsPerKey = 3
	keyedSettle     = 32_000 * delta
	keyedRecover    = 400 * delta
	keyedSetups     = 5 // set-up repetitions behind setup_s
	// keyedWorkers is the number of shard workers. One leaves the other
	// processors to the collector: shard.Run waits for its slowest
	// worker, and on a shared host a second worker made the rate
	// depend on what the neighbours run.
	keyedWorkers = 1
	// minPasses is the fewest passes timed, so the rate is a median even
	// when a pass outlasts the measured seconds.
	minPasses = 3
)

func keyedConfig(seed int64, keys int) shard.Config {
	return shard.Config{
		P:            keyedP,
		Keys:         keys,
		Shards:       keyedWorkers,
		Skew:         "zipf",
		ZipfS:        keyedZipfS,
		ReqsPerKey:   keyedReqsPerKey,
		Spacing:      time.Duration(4*keyedP+8) * delta,
		Settle:       keyedSettle,
		Node:         churnNodeConfig(keyedP),
		Delay:        sim.UniformDelay(delta/2, delta),
		CSTime:       csTime,
		Seed:         seed,
		CrashHot:     true,
		CrashRecover: keyedRecover,
	}
}

// keyedExact is the part of a shard.Result fixed by the seed.
type keyedExact struct {
	requests                                int
	grants, msgs, regens, stale, violations int64
	states, stalled                         int
	events                                  uint64
	waitCount                               int
	waitP50, waitP99                        float64
}

func exactOf(r shard.Result) keyedExact {
	return keyedExact{r.Requests, r.Grants, r.Msgs, r.Regens, r.Stale, r.Violations,
		r.States, r.Stalled, r.Events, r.Waits.Count(), r.Waits.Quantile(0.5), r.Waits.Quantile(0.99)}
}

// keyedSetup builds every slice's Space and request schedule the way
// shard.Run does before running it, and returns how long that took: the
// set-up share of a sharded run, which shard.Run interleaves with the
// simulation itself.
func keyedSetup(cfg shard.Config) (time.Duration, error) {
	start := time.Now()
	members := make([][]int32, shard.Slices)
	for g := 0; g < cfg.Keys; g++ {
		t := lockspace.InstanceShard(uint64(g), shard.Slices)
		members[t] = append(members[t], int32(g))
	}
	for t, keys := range members {
		if len(keys) == 0 {
			continue
		}
		seed := workload.ShardSeed(cfg.Seed, t)
		rng := rand.New(rand.NewSource(seed))
		count := cfg.ReqsPerKey * len(keys)
		reqs, err := workload.KeyedZipf(rng, 1<<cfg.P, len(keys), count, time.Duration(count)*cfg.Spacing, cfg.ZipfS)
		if err != nil {
			return 0, err
		}
		sp, err := lockspace.NewSpace(lockspace.SpaceConfig{
			P: cfg.P, Instances: len(keys), Node: cfg.Node, Seed: seed, Delay: cfg.Delay, CSTime: cfg.CSTime,
		})
		if err != nil {
			return 0, err
		}
		for _, r := range reqs {
			sp.Request(r.Key, ocube.Pos(r.Node), r.At)
		}
	}
	return time.Since(start), nil
}

// simKeyed runs the same seeded sharded run repeatedly until the measured
// seconds are spent; every pass must reproduce the first exactly.
func simKeyed(o options) (*result, error) {
	return simKeyedWith(o, keyedKeys)
}

func simKeyedWith(o options, keys int) (*result, error) {
	res := newResult()
	cfg := keyedConfig(o.seed, keys)
	var setups []float64
	for i := 0; i < keyedSetups; i++ {
		d, err := keyedSetup(cfg)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, d.Seconds())
	}

	type pass struct {
		res     shard.Result
		wall    time.Duration
		mallocs uint64
		traced  bool
	}
	deadline := time.Now().Add(time.Duration(o.seconds) * time.Second)
	var passes []pass
	var ms runtime.MemStats
	for len(passes) < minPasses || time.Now().Before(deadline) {
		// A traced run alternates untraced and traced passes; the
		// untraced ones are the reference for the exact counts and the
		// tracing overhead.
		traced := o.traced && len(passes)%2 == 1
		runtime.ReadMemStats(&ms)
		m0 := ms.Mallocs
		t0 := mono()
		start := time.Now()
		r, err := shard.Run(cfg)
		if err != nil {
			return nil, err
		}
		p := pass{res: r, wall: time.Since(start), traced: traced}
		runtime.ReadMemStats(&ms)
		p.mallocs = ms.Mallocs - m0
		if traced {
			o.spans.add("shard.Run", 0, int64(len(passes)), t0, mono())
		}
		passes = append(passes, p)
	}

	first := passes[0].res
	want := exactOf(first)
	var rates, plain, traced, workers, imbalance []float64
	for i, p := range passes {
		res.check(exactOf(p.res) == want, "pass %d (traced %v) counts %+v differ from pass 0 %+v", i, p.traced, exactOf(p.res), want)
		rate := float64(p.res.Grants) / p.wall.Seconds()
		rates = append(rates, rate)
		if p.traced {
			traced = append(traced, rate)
		} else {
			plain = append(plain, rate)
		}
		var busy, most time.Duration
		for _, s := range p.res.PerShard {
			busy += s.Wall
			most = max(most, s.Wall)
		}
		workers = append(workers, busy.Seconds()/p.wall.Seconds())
		if n := len(p.res.PerShard); n > 0 && busy > 0 {
			imbalance = append(imbalance, most.Seconds()/(busy.Seconds()/float64(n)))
		}
		res.attempted += int64(p.res.Requests)
		res.failed += int64(p.res.Requests) - p.res.Grants
	}
	res.check(first.Violations == 0, "%d mutual-exclusion violations", first.Violations)
	res.check(first.Stalled == 0, "%d slices stalled", first.Stalled)
	res.check(first.Grants > 0, "no grants")
	n := int64(first.Waits.Count())
	if !supported(n, 0.99) {
		return nil, errNoSamples
	}

	grants := float64(first.Grants)
	nsToMs := func(ns float64) float64 { return ns / float64(time.Millisecond) }
	m := res.metrics
	if !o.traced {
		m["setup_s"] = median(setups)
		m["grants_per_s"] = median(rates)
		m["msgs_per_grant"] = float64(first.Msgs) / grants
		m["wait_p50_ms"] = nsToMs(first.Waits.Quantile(0.5))
		m["wait_p90_ms"] = nsToMs(first.Waits.Quantile(0.9))
	} else {
		var busy time.Duration
		for _, s := range first.PerShard {
			busy += s.Wall
		}
		// One crash is injected, in the hot shard.
		m["core.regens_per_fail"] = float64(first.Regens)
		m["sim.events_per_grant"] = float64(first.Events) / grants
		m["sim.ns_per_event"] = float64(busy) / float64(first.Events)
		m["sim.allocs_per_grant"] = float64(passes[0].mallocs) / grants
		m["shard.effective_workers"] = median(workers)
		m["shard.imbalance"] = median(imbalance)
		m["lockspace.states"] = float64(first.States)
		m["lockspace.states_per_key"] = float64(first.States) / float64(keys)
		m["bench.trace_overhead"] = median(plain) / median(traced)
	}
	tail := highestTail(n)
	res.detail["passes"] = len(passes)
	res.detail["pass_grants_per_s"] = rates
	res.detail["shards"] = cfg.Shards
	res.detail["keys"] = keys
	res.detail["requests"] = first.Requests
	res.detail["grants"] = first.Grants
	res.detail["msgs"] = first.Msgs
	res.detail["events"] = first.Events
	res.detail["regenerations"] = first.Regens
	res.detail["wait_ms"] = latencies{Count: n, P50: nsToMs(first.Waits.Quantile(0.5)), P99: nsToMs(first.Waits.Quantile(0.99)),
		TailQ: tail, TailVal: nsToMs(first.Waits.Quantile(tail))}
	return res, nil
}
