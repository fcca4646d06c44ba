package sched

import (
	"math/rand"
)

// Scratch holds the working buffers a balancing round needs, so that a
// caller running many rounds (the simulator runs one per slot) can reuse
// them instead of re-allocating: the Distributed balancer's spare/speed
// state and the BaselineTree's task, visibility and share bookkeeping.
// A Scratch is owned by exactly one caller at a time: balancers never
// retain references to its buffers past the PlanScratch call, and the
// returned Plan never aliases scratch memory, so plans remain valid after
// the scratch is reused. The zero value is ready to use; buffers grow on
// demand and are kept at high-water size.
//
// Scratch is not safe for concurrent use. Fleet-style callers must give
// each goroutine its own Scratch (see internal/sim's per-run arena).
type Scratch struct {
	spare, speed  []int
	tasks, shares []int
	up            []bool
	vis           []int
	donors        []flow
	receivers     []flow
}

// ScratchPlanner is implemented by balancers that can run a round against a
// caller-owned Scratch. The contract is strict: the resulting Plan must be
// identical (reflect.DeepEqual) to what Plan would return for the same
// inputs and RNG state — scratch reuse is an allocation optimisation, never
// a behavioural one.
type ScratchPlanner interface {
	PlanScratch(s *Scratch, nodes []NodeLoad, maxTime int, interruption float64, rng *rand.Rand) Plan
}

// PlanWith runs one balancing round through the scratch-aware fast path
// when the balancer supports it (and a scratch is supplied), falling back
// to the plain Balancer interface otherwise.
func PlanWith(bal Balancer, s *Scratch, nodes []NodeLoad, maxTime int, interruption float64, rng *rand.Rand) Plan {
	if sp, ok := bal.(ScratchPlanner); ok && s != nil {
		return sp.PlanScratch(s, nodes, maxTime, interruption, rng)
	}
	return bal.Plan(nodes, maxTime, interruption, rng)
}

// growInts returns buf resized to n, reallocating only when capacity is
// short. Contents are unspecified; callers must overwrite or zero.
func growInts(buf []int, n int) []int {
	if cap(buf) < n {
		return make([]int, n)
	}
	return buf[:n]
}

func growBools(buf []bool, n int) []bool {
	if cap(buf) < n {
		return make([]bool, n)
	}
	return buf[:n]
}

// PlanScratch implements ScratchPlanner. NoBalance has no working state, so
// this is Plan verbatim.
func (NoBalance) PlanScratch(_ *Scratch, nodes []NodeLoad, _ int, _ float64, _ *rand.Rand) Plan {
	return basePlan(nodes)
}

// PlanScratch implements ScratchPlanner by forwarding the scratch to the
// inner balancer; the lease bookkeeping is identical to Plan.
func (l *Lease) PlanScratch(s *Scratch, nodes []NodeLoad, maxTime int, interruption float64, rng *rand.Rand) Plan {
	if l.pending {
		l.Retries++
		l.pending = false
	}
	if interruption >= 1 {
		p := basePlan(nodes)
		p.RolledBack = true
		l.pending = true
		return p
	}
	return PlanWith(l.Inner, s, nodes, maxTime, interruption, rng)
}

// PlanScratch implements ScratchPlanner. The round is computed exactly as
// Plan does — same candidate scan, same quantisation, same RNG draws — with
// spare/speed drawn from the scratch. Plan hands Algorithm 1 uniform task
// vectors and keeps only the left count, so this path asks uniformSplit
// for that count instead of building the vectors and the DP table.
func (d Distributed) PlanScratch(s *Scratch, nodes []NodeLoad, maxTime int, interruption float64, rng *rand.Rand) Plan {
	rounds := d.MaxRounds
	if rounds <= 0 {
		rounds = 3
	}
	p := basePlan(nodes)
	n := len(nodes)

	s.spare = growInts(s.spare, n)
	s.speed = growInts(s.speed, n)
	spare, speed := s.spare, s.speed
	for i, nd := range nodes {
		spare[i] = 0
		if nd.Alive {
			spare[i] = nd.Capacity - nd.Tasks
		}
		speed[i] = nd.TicksPerTask
		if speed[i] <= 0 {
			speed[i] = 1
		}
	}

	for round := 0; round < rounds; round++ {
		moved := false
		for i := 0; i < n; i++ {
			if !nodes[i].Alive || p.Leftover[i] == 0 {
				continue
			}
			p.BalanceRuns++
			if interruption > 0 && rng.Float64() < interruption {
				p.Interrupted++
				continue
			}
			left := nearestWithSpare(nodes, spare, i, -1)
			right := nearestWithSpare(nodes, spare, i, +1)
			if left == -1 && right == -1 {
				continue
			}
			m := p.Leftover[i]
			wantLeft, ok := uniformSplit(m, sideTicks(speed, left), sideTicks(speed, right), maxTime, 256)
			if !ok {
				continue
			}
			// One side may be absent: everything falls to the other.
			if left == -1 {
				wantLeft = 0
			}
			if right == -1 {
				wantLeft = m
			}
			wantRight := m - wantLeft
			moved = d.give(&p, spare, i, left, wantLeft) || moved
			moved = d.give(&p, spare, i, right, wantRight) || moved
		}
		if !moved {
			break
		}
	}
	return p
}

// PlanScratch implements ScratchPlanner. The tree walk, RNG draws, and
// levelling arithmetic are identical to Plan; the per-call task/visibility
// arrays and the share bookkeeping (a slice with a -1 "not visible"
// sentinel replacing Plan's map — lookups only, never iterated, so the
// results cannot differ) come from the scratch.
func (bt BaselineTree) PlanScratch(s *Scratch, nodes []NodeLoad, _ int, interruption float64, rng *rand.Rand) Plan {
	p := basePlan(nodes)
	n := len(nodes)
	s.tasks = growInts(s.tasks, n)
	s.up = growBools(s.up, n)
	s.shares = growInts(s.shares, n)
	tasks, up, shares := s.tasks, s.up, s.shares
	for i, nd := range nodes {
		tasks[i] = nd.Tasks
		up[i] = nd.Alive
	}

	// collectVisible appends the Plan-identical visible set (ascending
	// order) into s.vis. The recursion shape matches Plan's visible().
	var collectVisible func(lo, hi int)
	collectVisible = func(lo, hi int) {
		if hi-lo <= 0 {
			return
		}
		if hi-lo == 1 {
			if up[lo] {
				s.vis = append(s.vis, lo)
			}
			return
		}
		mid := (lo + hi) / 2
		if !up[mid] {
			return
		}
		collectVisible(lo, mid)
		collectVisible(mid, hi)
	}

	var balance func(lo, hi int)
	balance = func(lo, hi int) {
		if hi-lo <= 1 {
			return
		}
		mid := (lo + hi) / 2
		p.BalanceRuns++
		coordinatorUp := up[mid]
		if coordinatorUp && interruption > 0 && rng.Float64() < interruption {
			coordinatorUp = false
			p.Interrupted++
		}
		if !coordinatorUp {
			up[mid] = false
			balance(lo, mid)
			balance(mid, hi)
			return
		}
		// A balance call either recurses or levels its span, never both,
		// so one shared visibility buffer per scratch suffices.
		s.vis = s.vis[:0]
		collectVisible(lo, hi)
		vis := s.vis
		for i := lo; i < hi; i++ {
			shares[i] = -1
		}
		surplus := 0
		for _, i := range vis {
			keep := tasks[i]
			if keep > nodes[i].Capacity {
				keep = nodes[i].Capacity
			}
			shares[i] = keep
			surplus += tasks[i] - keep
		}
		for _, i := range vis {
			if surplus == 0 {
				break
			}
			room := nodes[i].Capacity - shares[i]
			if room <= 0 {
				continue
			}
			take := room
			if take > surplus {
				take = surplus
			}
			shares[i] += take
			surplus -= take
		}
		for _, i := range vis {
			if surplus == 0 {
				break
			}
			if extra := tasks[i] - shares[i]; extra > 0 {
				take := extra
				if take > surplus {
					take = surplus
				}
				shares[i] += take
				surplus -= take
			}
		}
		pairMovesScratch(s, &p, tasks, shares, lo, hi)
	}
	balance(0, n)

	for i, nd := range nodes {
		if !nd.Alive {
			p.Exec[i], p.Leftover[i] = 0, tasks[i]
			continue
		}
		ex := tasks[i]
		if ex > nd.Capacity {
			ex = nd.Capacity
		}
		p.Exec[i] = ex
		p.Leftover[i] = tasks[i] - ex
	}
	return p
}

type flow struct{ idx, amt int }

// pairMovesScratch is pairMoves with shares as a sentinel slice (-1 = not
// visible) and the donor/receiver queues drawn from the scratch. The pairing
// order is positional, exactly as in pairMoves.
func pairMovesScratch(s *Scratch, p *Plan, tasks, shares []int, lo, hi int) {
	s.donors, s.receivers = s.donors[:0], s.receivers[:0]
	for i := lo; i < hi; i++ {
		share := shares[i]
		if share < 0 {
			continue
		}
		switch d := tasks[i] - share; {
		case d > 0:
			s.donors = append(s.donors, flow{i, d})
		case d < 0:
			s.receivers = append(s.receivers, flow{i, -d})
		}
		tasks[i] = share
	}
	donors, receivers := s.donors, s.receivers
	di, ri := 0, 0
	for di < len(donors) && ri < len(receivers) {
		n := donors[di].amt
		if receivers[ri].amt < n {
			n = receivers[ri].amt
		}
		p.Moves = append(p.Moves, Move{From: donors[di].idx, To: receivers[ri].idx, Count: n})
		donors[di].amt -= n
		receivers[ri].amt -= n
		if donors[di].amt == 0 {
			di++
		}
		if receivers[ri].amt == 0 {
			ri++
		}
	}
}
