package main

import (
	"sync"
	"time"
)

// The host-speed calibration. On a shared host the speed of the same
// process drifts by a factor of two over minutes, in wall and CPU time
// alike: a fixed campaign repetition measured 2.2 s in one stretch and
// 1.0 s eight minutes later. Such a drift moves every run of a set, so
// no statistic over one run's repetitions can remove it. The driver
// therefore times a fixed loop of the benchmark's own next to every
// round of repetitions and reports time metrics scaled to a host on
// which that loop takes calibRefS. The loop calls nothing in the
// program, so a change to the program cannot move it.
//
// The loop has two parts, because the workloads slow down with both:
// loads and stores at random places of a table far larger than the
// per-core caches, and allocation of small linked objects and maps,
// which also makes the garbage collector work. Each part alone tracked
// the repetitions' times less closely than the two together.
const (
	// calibThreads is how many copies of the loop run at once: the
	// workloads keep both of the host's two cores busy.
	calibThreads = 2
	// calibTableLen is each copy's table: 16 MiB.
	calibTableLen = 1 << 21
	calibLoads    = 2_000_000
	calibAllocs   = 200_000
	// calibRefS is the reference host's calibration time. Scaled times
	// are the times the workload would take on that host. A 2-vCPU
	// Intel Xeon KVM guest took 0.07 to 0.1 s in a slow stretch.
	calibRefS = 0.1
)

// calibTables are filled once and reused, so a calibration does not pay
// for faulting in fresh memory.
var (
	calibOnce   sync.Once
	calibTables [calibThreads][]uint64
	calibSink   uint64
)

// calibrate runs calibThreads copies of the calibration loop at once and
// returns their wall time in seconds.
func calibrate() float64 {
	calibOnce.Do(func() {
		for i := range calibTables {
			calibTables[i] = make([]uint64, calibTableLen)
		}
	})
	var sums [calibThreads]uint64
	t0 := time.Now()
	var wg sync.WaitGroup
	for i := range sums {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sums[i] = calibLoop(calibTables[i], uint64(i)+1)
		}()
	}
	wg.Wait()
	d := time.Since(t0).Seconds()
	for _, s := range sums {
		calibSink ^= s
	}
	return d
}

// calibNode is the small object the allocating part links into maps.
type calibNode struct {
	x, key uint64
	next   *calibNode
}

// calibLoop fills tab from seed, then does the table part and the
// allocating part of the calibration.
func calibLoop(tab []uint64, seed uint64) uint64 {
	x := seed
	for i := range tab {
		x = x*6364136223846793005 + 1442695040888963407
		tab[i] = x
	}
	var acc uint64
	for i := 0; i < calibLoads; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := x & (calibTableLen - 1)
		v := tab[j]
		if v&1 == 0 {
			acc += v >> (x & 31)
		} else {
			acc ^= v * (x | 1)
			tab[j] = acc
		}
	}
	m := make(map[uint64]*calibNode)
	for i := 0; i < calibAllocs; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		k := x & 0xffff
		n := &calibNode{x: x, key: k, next: m[k]}
		m[k] = n
		if n.next != nil {
			acc += n.next.x
		}
		if i%65536 == 65535 {
			m = make(map[uint64]*calibNode)
		}
	}
	return acc
}
