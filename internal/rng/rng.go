// Package rng provides small, deterministic random number generators and
// samplers used by the workload generators and simulators.
//
// Every stream is seeded explicitly so that trace generation and simulation
// are fully reproducible: the same seed always yields byte-identical traces.
// The generator is xoshiro256**, seeded through splitmix64, following the
// reference implementations by Blackman and Vigna.
package rng

import "math"

// SplitMix64 advances the splitmix64 state and returns the next value.
// It is used both as a seeder for Rand and as a cheap standalone mixer.
func SplitMix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d4a2c62d967f2d
	return z ^ (z >> 31)
}

// Rand is a deterministic xoshiro256** generator.
// The zero value is not usable; construct with New.
type Rand struct {
	s [4]uint64
}

// New returns a generator seeded from the given seed.
// Distinct seeds give statistically independent streams.
func New(seed uint64) *Rand {
	r := &Rand{}
	sm := seed
	for i := range r.s {
		r.s[i] = SplitMix64(&sm)
	}
	// Guard against the all-zero state, which is a fixed point.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
	return r
}

// State returns the generator's four state words; SetState resumes the
// stream at them. The all-zero state is a fixed point no seeded generator
// reaches, so callers restoring untrusted words reject it.
func (r *Rand) State() [4]uint64 { return r.s }

// SetState resumes the stream at words State returned.
func (r *Rand) SetState(s [4]uint64) { r.s = s }

// Fork derives an independent generator from this one. The derived stream
// does not overlap the parent stream for any practical sequence length.
func (r *Rand) Fork() *Rand {
	return New(r.Uint64() ^ 0xd1342543de82ef95)
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly random bits.
func (r *Rand) Uint64() uint64 {
	s := &r.s
	result := rotl(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = rotl(s[3], 45)
	return result
}

// Float64 returns a uniform value in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// IntN returns a uniform value in [0, n). It panics if n <= 0.
func (r *Rand) IntN(n int) int {
	if n <= 0 {
		panic("rng: IntN with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Int63N returns a uniform value in [0, n). It panics if n <= 0.
func (r *Rand) Int63N(n int64) int64 {
	if n <= 0 {
		panic("rng: Int63N with non-positive n")
	}
	return int64(r.Uint64() % uint64(n))
}

// Bool returns true with probability p.
func (r *Rand) Bool(p float64) bool {
	return r.Float64() < p
}

// Exp returns an exponentially distributed value with the given mean.
func (r *Rand) Exp(mean float64) float64 {
	u := r.Float64()
	// Avoid log(0).
	if u <= 0 {
		u = math.SmallestNonzeroFloat64
	}
	return -mean * math.Log(1-u)
}

// Normal returns a normally distributed value via the Box–Muller transform.
func (r *Rand) Normal(mean, stddev float64) float64 {
	u1 := r.Float64()
	u2 := r.Float64()
	if u1 <= 0 {
		u1 = math.SmallestNonzeroFloat64
	}
	z := math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	return mean + stddev*z
}

// Weighted holds a discrete distribution over arbitrary integer outcomes.
// Sampling is O(log n) via a cumulative-weight table.
type Weighted struct {
	values []int64
	cum    []float64 // strictly increasing cumulative weights
	total  float64
}

// NewWeighted builds a sampler over the given value/weight pairs.
// Zero-weight entries are dropped. It panics if no positive weight remains.
func NewWeighted(values []int64, weights []float64) *Weighted {
	if len(values) != len(weights) {
		panic("rng: values/weights length mismatch")
	}
	w := &Weighted{}
	for i, v := range values {
		if weights[i] <= 0 {
			continue
		}
		w.total += weights[i]
		w.values = append(w.values, v)
		w.cum = append(w.cum, w.total)
	}
	if len(w.values) == 0 {
		panic("rng: weighted sampler with no positive weights")
	}
	return w
}

// Sample draws one outcome from the distribution.
func (w *Weighted) Sample(r *Rand) int64 {
	x := r.Float64() * w.total
	lo, hi := 0, len(w.cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if w.cum[mid] <= x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return w.values[lo]
}

// Mean returns the expectation of the distribution.
func (w *Weighted) Mean() float64 {
	var sum float64
	prev := 0.0
	for i, v := range w.values {
		sum += float64(v) * (w.cum[i] - prev)
		prev = w.cum[i]
	}
	return sum / w.total
}

// Len reports the number of distinct outcomes with positive weight.
func (w *Weighted) Len() int { return len(w.values) }
