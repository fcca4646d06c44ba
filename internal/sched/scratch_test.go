package sched

import (
	"math/rand"
	"reflect"
	"testing"
)

// randomLoads builds a chain of up to 24 nodes with varied aliveness,
// backlog, capacity, and speed. In large-backlog mode half the nodes hold
// 40–80 tasks against small capacities, at speeds across the simulator's
// millisecond-tick range, so leftovers of ~50–65 tasks reach Algorithm 1
// with a budget-bound quantised table — the shapes fig13 produces.
func randomLoads(rng *rand.Rand, large bool) []NodeLoad {
	n := rng.Intn(24) + 1
	nodes := make([]NodeLoad, n)
	for i := range nodes {
		if large {
			// Hot nodes with deep backlogs beside idle ones with room.
			tasks := rng.Intn(4)
			if rng.Intn(2) == 0 {
				tasks = 40 + rng.Intn(41)
			}
			nodes[i] = NodeLoad{
				Alive:        rng.Intn(4) != 0,
				Tasks:        tasks,
				Capacity:     rng.Intn(12),
				TicksPerTask: rng.Intn(3000), // includes 0 to exercise the floor
			}
			continue
		}
		nodes[i] = NodeLoad{
			Alive:        rng.Intn(4) != 0,
			Tasks:        rng.Intn(8),
			Capacity:     rng.Intn(6),
			TicksPerTask: rng.Intn(5), // includes 0 to exercise the floor
		}
	}
	return nodes
}

// TestPlanScratchMatchesPlan is the scratch contract: for every balancer,
// PlanScratch with a reused scratch must return exactly the plan Plan
// returns — same RNG draws, same moves, same counters — across many rounds,
// including rounds with interruption.
func TestPlanScratchMatchesPlan(t *testing.T) {
	balancers := []func() Balancer{
		func() Balancer { return NoBalance{} },
		func() Balancer { return Distributed{} },
		func() Balancer { return Distributed{MaxRounds: 1} },
		func() Balancer { return BaselineTree{} },
		func() Balancer { return &Lease{Inner: Distributed{}} },
		func() Balancer { return &Lease{Inner: BaselineTree{}} },
	}
	for _, mk := range balancers {
		serial, scratched := mk(), mk()
		name := serial.Name()
		t.Run(name, func(t *testing.T) {
			rngA := rand.New(rand.NewSource(7))
			rngB := rand.New(rand.NewSource(7))
			var s Scratch
			modes := []struct {
				seed            int64
				large           bool
				rounds          int
				minMax, spanMax int
			}{
				{42, false, 300, 1, 4000},
				{43, true, 100, 257, 16000},
			}
			for _, mode := range modes {
				gen := rand.New(rand.NewSource(mode.seed))
				for round := 0; round < mode.rounds; round++ {
					nodes := randomLoads(gen, mode.large)
					maxTime := gen.Intn(mode.spanMax) + mode.minMax
					var interruption float64
					switch gen.Intn(4) {
					case 0:
						interruption = 0
					case 1:
						interruption = gen.Float64()
					case 2:
						interruption = 1 // forces Lease rollback
					case 3:
						interruption = 0.3
					}
					want := serial.Plan(nodes, maxTime, interruption, rngA)
					got := PlanWith(scratched, &s, nodes, maxTime, interruption, rngB)
					if !reflect.DeepEqual(want, got) {
						t.Fatalf("large=%v round %d (maxTime=%d intr=%v):\nPlan        = %+v\nPlanScratch = %+v",
							mode.large, round, maxTime, interruption, want, got)
					}
				}
			}
		})
	}
}

// assignLeft is the oracle for uniformSplit: the Distributed balancer's
// original path, which quantises m identical task times and runs the full
// Algorithm 1 DP, then counts the tasks sent left.
func assignLeft(m, ta, tb, maxTime, limit int) (int, bool) {
	a := make([]int, m)
	b := make([]int, m)
	for k := range a {
		a[k], b[k] = ta, tb
	}
	qa, qb, qm := quantise(a, b, maxTime, limit)
	sides, _, err := Assign(qa, qb, qm)
	if err != nil {
		return 0, false
	}
	left := 0
	for _, sd := range sides {
		if sd == Left {
			left++
		}
	}
	return left, true
}

// TestUniformSplitMatchesAssign checks the closed form exhaustively over a
// bounded domain: every backlog up to 16, every task time up to 24 plus the
// absent-side sentinel on either side, and budgets that cover the
// non-positive error cases, the unquantised range and both sides of the
// 256-tick quantisation boundaries. FuzzUniformSplit covers the rest.
func TestUniformSplitMatchesAssign(t *testing.T) {
	var times []int
	for v := 1; v <= 24; v++ {
		times = append(times, v)
	}
	times = append(times, 1<<20)
	// Every small budget (where the m·ta table-height cap bites), then a
	// spread up to 600 that straddles the scale-1/2/3 quantisation steps.
	var budgets []int
	for v := -1; v <= 24; v++ {
		budgets = append(budgets, v)
	}
	budgets = append(budgets, 40, 63, 97, 128, 255, 256, 257, 258, 384, 511, 512, 513, 514, 600)
	for m := 0; m <= 16; m++ {
		for _, ta := range times {
			for _, tb := range times {
				for _, maxTime := range budgets {
					wantLeft, wantOK := assignLeft(m, ta, tb, maxTime, 256)
					gotLeft, gotOK := uniformSplit(m, ta, tb, maxTime, 256)
					if gotLeft != wantLeft || gotOK != wantOK {
						t.Fatalf("uniformSplit(m=%d, ta=%d, tb=%d, maxTime=%d) = (%d, %v), Assign says (%d, %v)",
							m, ta, tb, maxTime, gotLeft, gotOK, wantLeft, wantOK)
					}
				}
			}
		}
	}
}

// FuzzUniformSplit runs the uniformSplit/Assign equivalence on arbitrary
// inputs, including non-positive task times and budgets (where both must
// refuse) and budgets far above the quantisation limit.
func FuzzUniformSplit(f *testing.F) {
	f.Add(3, 2, 5, 100)
	f.Add(64, 3, 7, 12000)
	f.Add(5, 1<<20, 4, 700)
	f.Add(7, 0, 3, 50)
	f.Add(4, 2, 2, -1)
	f.Fuzz(func(t *testing.T, m, ta, tb, maxTime int) {
		// Keep the oracle's (budget × tasks) table small.
		m = (m%100 + 100) % 100
		ta, tb = clampTicks(ta), clampTicks(tb)
		if maxTime > 1<<16 || maxTime < -1<<16 {
			maxTime %= 1 << 16
		}
		wantLeft, wantOK := assignLeft(m, ta, tb, maxTime, 256)
		gotLeft, gotOK := uniformSplit(m, ta, tb, maxTime, 256)
		if gotLeft != wantLeft || gotOK != wantOK {
			t.Fatalf("uniformSplit(m=%d, ta=%d, tb=%d, maxTime=%d) = (%d, %v), Assign says (%d, %v)",
				m, ta, tb, maxTime, gotLeft, gotOK, wantLeft, wantOK)
		}
	})
}

// clampTicks bounds a fuzzed task time to [-1, 1<<20], the widest range
// sideTicks can produce plus the non-positive values Assign rejects.
func clampTicks(v int) int {
	if v > 1<<20 {
		return 1 << 20
	}
	if v < -1 {
		return -1
	}
	return v
}

// TestPlanScratchSteadyStateAllocs pins the scratch fast path's per-round
// allocation budget. basePlan's Exec/Leftover (the plan's caller-owned
// result) and Move appends are the only remaining sources, so the budget is
// small and any regression in the scratch plumbing trips it.
func TestPlanScratchSteadyStateAllocs(t *testing.T) {
	nodes := []NodeLoad{
		{Alive: true, Tasks: 6, Capacity: 2, TicksPerTask: 2},
		{Alive: true, Tasks: 0, Capacity: 4, TicksPerTask: 1},
		{Alive: true, Tasks: 5, Capacity: 1, TicksPerTask: 3},
		{Alive: true, Tasks: 0, Capacity: 5, TicksPerTask: 1},
	}
	bal := Distributed{}
	var s Scratch
	rng := rand.New(rand.NewSource(1))
	// Warm the scratch to high-water size.
	PlanWith(bal, &s, nodes, 4000, 0, rng)
	allocs := testing.AllocsPerRun(200, func() {
		PlanWith(bal, &s, nodes, 4000, 0, rng)
	})
	// Budget: Exec + Leftover in basePlan, plus Moves growth (≤3 appends).
	if allocs > 6 {
		t.Fatalf("PlanScratch steady-state allocs = %v, want ≤ 6", allocs)
	}
}
