package sched

import (
	"math/rand"
	"testing"
)

func BenchmarkAssignSmall(b *testing.B)  { benchAssign(b, 8, 200) }
func BenchmarkAssignMedium(b *testing.B) { benchAssign(b, 32, 256) }
func BenchmarkAssignLarge(b *testing.B)  { benchAssign(b, 64, 256) }

// Ablation: the unquantised DP the balancer would otherwise run per
// invocation (12000-tick budget, the raw slot resolution).
func BenchmarkAssignUnquantised(b *testing.B) { benchAssign(b, 64, 12000) }

func benchAssign(b *testing.B, n, maxTime int) {
	rng := rand.New(rand.NewSource(1))
	a := make([]int, n)
	bb := make([]int, n)
	for i := range a {
		a[i] = rng.Intn(9) + 1
		bb[i] = rng.Intn(9) + 1
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Assign(a, bb, maxTime); err != nil {
			b.Fatal(err)
		}
	}
}

func benchPlan(b *testing.B, bal Balancer) {
	rng := rand.New(rand.NewSource(1))
	nodes := make([]NodeLoad, 100)
	for i := range nodes {
		nodes[i] = NodeLoad{
			Alive:        rng.Float64() < 0.85,
			Tasks:        rng.Intn(4),
			Capacity:     rng.Intn(3),
			TicksPerTask: rng.Intn(9000) + 1000,
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bal.Plan(nodes, 12000, 0.02, rng)
	}
}

func BenchmarkPlanNone(b *testing.B)        { benchPlan(b, NoBalance{}) }
func BenchmarkPlanTree(b *testing.B)        { benchPlan(b, BaselineTree{}) }
func BenchmarkPlanDistributed(b *testing.B) { benchPlan(b, Distributed{}) }

// BenchmarkPlanScratchDistributedFig13Shape is the simulator's hot path in
// the low-power regimes: PlanWith over a reused scratch with alternating
// deep-backlog and idle nodes, so each overloaded node hands Algorithm 1 a
// leftover of 64 tasks against a 12000-tick budget (a 255-tick quantised
// table for the reference DP).
func BenchmarkPlanScratchDistributedFig13Shape(b *testing.B) {
	nodes := make([]NodeLoad, 16)
	for i := range nodes {
		nodes[i] = NodeLoad{Alive: true, Capacity: 8, TicksPerTask: 1500 + 250*i}
		if i%2 == 0 {
			nodes[i].Tasks, nodes[i].Capacity = 70, 6
		}
	}
	bal := Distributed{}
	var s Scratch
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	for b.Loop() {
		PlanWith(bal, &s, nodes, 12000, 0, rng)
	}
}
