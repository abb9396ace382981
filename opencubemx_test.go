package opencubemx

import (
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
)

func TestNewClusterValidation(t *testing.T) {
	for _, n := range []int{0, -4, 3, 6, 12} {
		if _, err := NewCluster(n); err == nil {
			t.Errorf("NewCluster(%d) succeeded, want error", n)
		}
	}
}

func TestClusterMutualExclusionLive(t *testing.T) {
	// The live goroutine runtime: concurrent lockers incrementing a
	// shared counter under the distributed mutex must never race.
	c, err := NewCluster(8)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const perNode = 10
	var (
		counter int64 // protected by the distributed mutex
		inCS    int64
		wg      sync.WaitGroup
	)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	for i := 0; i < c.N(); i++ {
		m, err := c.Mutex(i)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < perNode; k++ {
				if err := m.Lock(ctx); err != nil {
					t.Errorf("lock: %v", err)
					return
				}
				if atomic.AddInt64(&inCS, 1) != 1 {
					t.Error("mutual exclusion violated")
				}
				counter++
				atomic.AddInt64(&inCS, -1)
				if err := m.Unlock(); err != nil {
					t.Errorf("unlock: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if counter != int64(c.N()*perNode) {
		t.Errorf("counter = %d, want %d", counter, c.N()*perNode)
	}
}

func TestClusterWithFaultToleranceLive(t *testing.T) {
	c, err := NewCluster(4, WithFaultTolerance(5*time.Millisecond, time.Millisecond, 200*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	m, err := c.Mutex(3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := m.Lock(ctx); err != nil {
			t.Fatalf("lock %d: %v", i, err)
		}
		if err := m.Unlock(); err != nil {
			t.Fatalf("unlock %d: %v", i, err)
		}
	}
}

func TestClusterWithPolicy(t *testing.T) {
	c, err := NewCluster(4, WithPolicy(core.NaimiTrehelPolicy{}))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	m, err := c.Mutex(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Lock(ctx); err != nil {
		t.Fatal(err)
	}
	if err := m.Unlock(); err != nil {
		t.Fatal(err)
	}
}

func TestMutexOutOfRange(t *testing.T) {
	c, err := NewCluster(2)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Mutex(5); err == nil {
		t.Error("Mutex(5) succeeded on a 2-node cluster")
	}
	if _, err := c.Mutex(-1); err == nil {
		t.Error("Mutex(-1) succeeded")
	}
}

func TestLockContextCancellation(t *testing.T) {
	c, err := NewCluster(2)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	m0, _ := c.Mutex(0)
	m1, _ := c.Mutex(1)
	ctx := context.Background()
	if err := m0.Lock(ctx); err != nil {
		t.Fatal(err)
	}
	// Node 1 gives up while waiting.
	short, cancel := context.WithTimeout(ctx, 50*time.Millisecond)
	defer cancel()
	if err := m1.Lock(short); err == nil {
		t.Fatal("lock succeeded while the token was held elsewhere")
	}
	if err := m0.Unlock(); err != nil {
		t.Fatal(err)
	}
	// The abandoned grant is auto-released; the mutex remains usable.
	again, cancel2 := context.WithTimeout(ctx, 10*time.Second)
	defer cancel2()
	if err := m0.Lock(again); err != nil {
		t.Fatalf("relock after abandonment: %v", err)
	}
	if err := m0.Unlock(); err != nil {
		t.Fatal(err)
	}
}

func TestMutexUnlockWithoutLock(t *testing.T) {
	c, err := NewCluster(2)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < c.N(); i++ {
		m, _ := c.Mutex(i)
		if err := m.Unlock(); err == nil {
			t.Errorf("node %d: unlock without lock succeeded", i)
		}
	}
	// A released hold cannot be released twice.
	m, _ := c.Mutex(1)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := m.Lock(ctx); err != nil {
		t.Fatal(err)
	}
	if err := m.Unlock(); err != nil {
		t.Fatal(err)
	}
	if err := m.Unlock(); err == nil {
		t.Error("second unlock of one hold succeeded")
	}
}

func TestMutexAfterKill(t *testing.T) {
	c, err := NewCluster(2)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Kill(2); err == nil {
		t.Error("Kill(2) succeeded on a 2-node cluster")
	}
	m0, _ := c.Mutex(0)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := m0.Lock(ctx); err != nil {
		t.Fatal(err)
	}
	if err := c.Kill(0); err != nil {
		t.Fatal(err)
	}
	if err := c.Kill(0); err != nil {
		t.Errorf("second kill: %v", err)
	}
	// The killed node's hold dies with it: neither Unlock nor a new Lock
	// reaches the stopped event loop.
	if err := m0.Unlock(); err == nil {
		t.Error("unlock on a killed node succeeded")
	}
	if err := m0.Lock(ctx); err == nil {
		t.Error("lock on a killed node succeeded")
	}
	if _, err := m0.LockFenced(ctx); err == nil {
		t.Error("fenced lock on a killed node succeeded")
	}
}

// TestMutexSameNodeSerializes: goroutines sharing one node's Mutex queue
// FIFO behind each other like sync.Mutex — the second Lock waits for the
// first holder's Unlock instead of failing.
func TestMutexSameNodeSerializes(t *testing.T) {
	c, err := NewCluster(2)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	m, _ := c.Mutex(1)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	const rounds = 50
	var (
		inCS    int64
		counter int // protected by the mutex
		wg      sync.WaitGroup
	)
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < rounds; k++ {
				if err := m.Lock(ctx); err != nil {
					t.Errorf("lock: %v", err)
					return
				}
				if atomic.AddInt64(&inCS, 1) != 1 {
					t.Error("two goroutines of one node in the critical section")
				}
				counter++
				atomic.AddInt64(&inCS, -1)
				if err := m.Unlock(); err != nil {
					t.Errorf("unlock: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if counter != 2*rounds {
		t.Errorf("counter = %d, want %d", counter, 2*rounds)
	}
}

func TestTCPNodeValidation(t *testing.T) {
	if _, err := NewTCPNode(0, []string{"a", "b", "c"}); err == nil {
		t.Error("3-member TCP cluster accepted")
	}
	if _, err := NewTCPNode(5, []string{"127.0.0.1:0", "127.0.0.1:0"}); err == nil {
		t.Error("out-of-range self accepted")
	}
}

// freeLoopbackAddrs reserves n distinct loopback addresses by binding and
// releasing listeners (a benign bind race, standard for tests).
func freeLoopbackAddrs(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = ln.Addr().String()
		ln.Close()
	}
	return addrs
}

func TestTCPClusterLive(t *testing.T) {
	// Four nodes over real loopback TCP sockets, each locking in turn.
	addrs := freeLoopbackAddrs(t, 4)
	nodes := make([]*TCPNode, len(addrs))
	for i := range addrs {
		n, err := NewTCPNode(i, addrs)
		if err != nil {
			t.Fatal(err)
		}
		defer n.Close()
		nodes[i] = n
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	var counter int
	var wg sync.WaitGroup
	for _, n := range nodes {
		m := n.Mutex()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 3; k++ {
				if err := m.Lock(ctx); err != nil {
					t.Errorf("tcp lock: %v", err)
					return
				}
				counter++ // protected by the distributed mutex
				if err := m.Unlock(); err != nil {
					t.Errorf("tcp unlock: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if counter != 12 {
		t.Errorf("counter = %d, want 12", counter)
	}
}

func TestLockspaceClusterLive(t *testing.T) {
	if _, err := NewLockspaceCluster(3); err == nil {
		t.Error("non-power-of-two lockspace cluster accepted")
	}
	c, err := NewLockspaceCluster(4)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Lockspace(4); err == nil {
		t.Error("out-of-range lockspace handle accepted")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// Every node increments two per-key counters; each counter is
	// protected only by its own key's distributed mutex, so both totals
	// must come out exact.
	var counts [2]int
	var wg sync.WaitGroup
	for i := 0; i < c.N(); i++ {
		ls, err := c.Lockspace(i)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for k := 0; k < 3; k++ {
				idx := (id + k) % 2
				key := fmt.Sprintf("key-%d", idx)
				fence, err := ls.Lock(ctx, key)
				if err != nil {
					t.Errorf("node %d: lock %s: %v", id, key, err)
					return
				}
				if fence == 0 {
					t.Errorf("node %d: lock %s: zero fence", id, key)
				}
				counts[idx]++ // protected by key's distributed mutex
				if err := ls.Unlock(key, fence); err != nil {
					t.Errorf("node %d: unlock %s: %v", id, key, err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	if got := counts[0] + counts[1]; got != 12 {
		t.Errorf("total increments = %d, want 12", got)
	}
}
