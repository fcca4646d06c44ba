// Package sched implements the load-balancing layer of NEOFog (§3.2): the
// paper's Algorithm 1 — a distributed dynamic-programming assignment of a
// node's surplus tasks to its best left/right chain neighbours — plus the
// baseline up-down tree balancer it is compared against and a no-balancing
// control.
package sched

import (
	"errors"
	"fmt"
)

// Side says which neighbour a task is assigned to.
type Side int

// Assignment sides.
const (
	Left Side = iota
	Right
)

func (s Side) String() string {
	if s == Left {
		return "left"
	}
	return "right"
}

// Assign solves Algorithm 1. a[k] is the time to run task k on the most
// efficient node on the left, b[k] on the right (arbitrary integer ticks;
// the caller picks the quantum). maxTime is the load-balance call interval
// in the same ticks, bounding the left node's schedule length (the DP table
// height, giving the paper's O(n·MAXTIME) complexity). It returns the
// per-task sides and the resulting makespan max(left, right).
//
// The recurrence is the paper's Equation 3:
//
//	OPT(i,k) = min(OPT(i-a[k], k-1), OPT(i, k-1) + b[k])
//
// where OPT(i,k) is the least right-side time to finish the first k tasks
// with at most i ticks of left-side time.
func Assign(a, b []int, maxTime int) ([]Side, int, error) {
	n := len(a)
	if len(b) != n {
		return nil, 0, fmt.Errorf("sched: mismatched task arrays (%d vs %d)", n, len(b))
	}
	if n == 0 {
		return nil, 0, nil
	}
	for k := 0; k < n; k++ {
		if a[k] <= 0 || b[k] <= 0 {
			return nil, 0, fmt.Errorf("sched: non-positive task time at %d", k)
		}
	}
	if maxTime <= 0 {
		return nil, 0, errors.New("sched: non-positive maxTime")
	}

	// Table height: the left side never needs more than Σa or maxTime.
	sa := 0
	for _, v := range a {
		sa += v
	}
	if sa > maxTime {
		sa = maxTime
	}

	const inf = int(^uint(0) >> 2)
	// p[i][k] = least right time for tasks 1..k with left budget i.
	// Column 0 is the empty prefix: zero right time for any budget.
	p := make([][]int, sa+1)
	for i := range p {
		p[i] = make([]int, n+1)
	}
	for i := 0; i <= sa; i++ {
		for k := 1; k <= n; k++ {
			best := p[i][k-1] + b[k-1] // task k on the right
			if i >= a[k-1] {           // or on the left
				if alt := p[i-a[k-1]][k-1]; alt < best {
					best = alt
				}
			}
			p[i][k] = best
		}
	}

	// Find the budget minimising the makespan max(i, p[i][n]).
	minTime, bestI := inf, 0
	for i := 0; i <= sa; i++ {
		temp := p[i][n]
		if i > temp {
			temp = i
		}
		if temp < minTime {
			minTime, bestI = temp, i
		}
	}

	// Generate the assignment by walking the table back.
	out := make([]Side, n)
	i := bestI
	for k := n; k >= 1; k-- {
		if i >= a[k-1] && p[i-a[k-1]][k-1] <= p[i][k-1]+b[k-1] {
			out[k-1] = Left
			i -= a[k-1]
		} else {
			out[k-1] = Right
		}
	}
	return out, minTime, nil
}

// uniformSplit is Assign's left count for m identical tasks taking ta ticks
// on the left and tb on the right, after the same quantise(…, maxTime,
// limit) step the Distributed balancer applies. ok is false exactly where
// Assign would return an error. With uniform inputs the DP table has the
// closed form p[i][k] = tb·max(0, k−⌊i/ta⌋), the backtrack sends a task
// left whenever i ≥ ta, and the first makespan argmin lies on some
// i = j·ta, so the answer is the first j in [0, min(m, ⌊maxTime/ta⌋)]
// minimising max(j·ta, tb·(m−j)) — O(m) instead of O(m·maxTime).
// DESIGN.md has the proof.
func uniformSplit(m, ta, tb, maxTime, limit int) (left int, ok bool) {
	if maxTime > limit {
		scale := (maxTime + limit - 1) / limit
		ta, tb, maxTime = maxInt(1, ta/scale), maxInt(1, tb/scale), maxTime/scale
	}
	if m == 0 {
		return 0, true
	}
	if ta <= 0 || tb <= 0 || maxTime <= 0 {
		return 0, false
	}
	// j·ta ≤ min(m·ta, maxTime), Assign's table height.
	best := -1
	for j := 0; j <= min(m, maxTime/ta); j++ {
		if t := max(j*ta, tb*(m-j)); best < 0 || t < best {
			best, left = t, j
		}
	}
	return left, true
}

// Makespan evaluates an assignment: the max of total left and right time.
func Makespan(a, b []int, sides []Side) int {
	var l, r int
	for k, s := range sides {
		if s == Left {
			l += a[k]
		} else {
			r += b[k]
		}
	}
	if l > r {
		return l
	}
	return r
}
