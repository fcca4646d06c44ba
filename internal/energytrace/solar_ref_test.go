package energytrace

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"neofog/internal/units"
)

// referenceGenerate is the straightforward synthesis the package's Generate
// must reproduce bit for bit: the envelope recomputed inside the sample
// loop, with the same float operations and RNG draw order.
func referenceGenerate(c SolarConfig, rng *rand.Rand) *Sampled {
	if c.Step <= 0 || c.DayEnd <= c.DayStart {
		panic("energytrace: invalid solar config")
	}
	n := int((c.DayEnd - c.DayStart) / c.Step)
	tr := NewSampled(c.Step, n)

	dayLen := float64(c.DayEnd - c.DayStart)
	covered := rng.Float64() < 0.5
	dwell := c.nextDwell(rng, covered)

	for i := 0; i < n; i++ {
		t := float64(i) * float64(c.Step)
		envelope := math.Sin(math.Pi * t / dayLen)
		p := float64(c.Peak) * envelope
		if covered {
			p *= c.CloudAttenuation
		}
		dwell -= c.Step
		if dwell <= 0 {
			covered = !covered
			dwell = c.nextDwell(rng, covered)
		}
		if c.ShadeJitter > 0 {
			f := 1 + rng.NormFloat64()*c.ShadeJitter
			f = math.Max(0, math.Min(f, 1+3*c.ShadeJitter))
			p *= f
		}
		p += float64(c.Floor) * envelope
		if p < 0 {
			p = 0
		}
		tr.Samples[i] = units.Power(p)
	}
	return tr
}

// referenceIndependentSet is the forest recipe built from Slice and Concat,
// one base trace per Generate call.
func referenceIndependentSet(cfg SolarConfig, nodes int, segment units.Duration, rng *rand.Rand) []*Sampled {
	const poolSize = 8
	pool := make([]*Sampled, poolSize)
	for i := range pool {
		pool[i] = referenceGenerate(cfg, rng)
	}
	segSamples := int(segment / cfg.Step)
	if segSamples <= 0 {
		panic("energytrace: segment shorter than step")
	}
	total := len(pool[0].Samples)
	if segSamples > total {
		segSamples = total
	}
	maxStart := (total - segSamples) / segSamples

	out := make([]*Sampled, nodes)
	for n := 0; n < nodes; n++ {
		parts := make([]*Sampled, 0, total/segSamples+1)
		have := 0
		for have < total {
			src := pool[rng.Intn(poolSize)]
			at := rng.Intn(maxStart+1) * segSamples
			parts = append(parts, src.Slice(at, at+segSamples))
			have += segSamples
		}
		tr := Concat(parts...)
		tr.Samples = tr.Samples[:total]
		out[n] = tr
	}
	return out
}

// TestSynthesisMatchesReference pins Generate and IndependentSet to the
// reference synthesis for every weather preset, several seeds, and segment
// lengths that divide the trace, do not divide it (7 min into 5 h), equal
// it, and exceed it.
func TestSynthesisMatchesReference(t *testing.T) {
	presets := map[string]SolarConfig{
		"sunny":    SunnyDay(),
		"overcast": OvercastDay(),
		"rainy":    RainyDay(),
	}
	segments := []units.Duration{units.Minute, 5 * units.Minute, 7 * units.Minute, 5 * units.Hour, 6 * units.Hour}
	for name, cfg := range presets {
		for _, seed := range []int64{1, 2, 99} {
			want := referenceGenerate(cfg, rand.New(rand.NewSource(seed)))
			got := cfg.Generate(rand.New(rand.NewSource(seed)))
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("%s seed %d: Generate differs from the reference", name, seed)
			}
			for _, seg := range segments {
				t.Run(fmt.Sprintf("%s/seed%d/%v", name, seed, seg), func(t *testing.T) {
					want := referenceIndependentSet(cfg, 5, seg, rand.New(rand.NewSource(seed)))
					got := IndependentSet(cfg, 5, seg, rand.New(rand.NewSource(seed)))
					if !reflect.DeepEqual(want, got) {
						t.Fatal("IndependentSet differs from the reference")
					}
				})
			}
		}
	}
}

func BenchmarkIndependentSet(b *testing.B) {
	cfg := RainyDay()
	b.ReportAllocs()
	var seed int64
	for b.Loop() {
		seed++
		IndependentSet(cfg, 16, 5*units.Minute, rand.New(rand.NewSource(seed)))
	}
}
