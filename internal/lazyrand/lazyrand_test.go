package lazyrand

import (
	"math"
	"math/rand"
	"testing"
)

// drawsPerSeed keeps each segment between re-seeds well past 607 source
// reads, so both the feed and the tap wrap around the state at least
// once and every word is both computed lazily and then read back as a
// sum.
const drawsPerSeed = 2400

// equivalenceSeeds are the seeds Seed normalises specially (0, and the
// multiples of 2³¹−1 that reduce to it, which both map to 89482311),
// the extremes of int64, small seeds of either sign, and 300 seeds
// drawn at random over the whole int64 range.
func equivalenceSeeds() []int64 {
	seeds := []int64{
		0, 1, -1, 2, -2, 7, 42,
		modulus, -modulus, 2 * modulus, -2 * modulus, 1000003 * modulus, -1000003 * modulus,
		modulus - 1, modulus + 1, -modulus + 1, -modulus - 1,
		zeroSeed, -zeroSeed,
		math.MinInt64, math.MinInt64 + 1, math.MaxInt64, math.MaxInt64 - 1,
		1 << 32, -(1 << 32),
	}
	r := rand.New(rand.NewSource(20141015))
	for i := 0; i < 300; i++ {
		seeds = append(seeds, int64(r.Uint64()))
	}
	return seeds
}

// drawMixed draws the methods the repo's streams use, in an order
// picked by op, and returns the bits of the result.
func drawMixed(r *rand.Rand, op int) uint64 {
	switch op % 8 {
	case 0:
		return math.Float64bits(r.Float64())
	case 1:
		return math.Float64bits(r.ExpFloat64())
	case 2:
		return math.Float64bits(r.NormFloat64())
	case 3:
		return uint64(r.Intn(1 + op%1000))
	case 4:
		return uint64(r.Intn(1 << 40)) // the Int63n path
	case 5:
		return uint64(r.Int63())
	case 6:
		return r.Uint64()
	default:
		return uint64(r.Int31n(int32(1 + op%97)))
	}
}

func TestMatchesMathRand(t *testing.T) {
	seeds := equivalenceSeeds()
	for si, seed := range seeds {
		want := rand.New(rand.NewSource(seed))
		got := New(seed)
		pick := rand.New(rand.NewSource(int64(si)))
		// Seeds mid-stream restart both streams: at draw 3 while the
		// source still keeps its few words inline, and at draw 1200 with
		// words computed for the old seed still in its state.
		reseed := map[int]int64{3: seeds[(si*17+3)%len(seeds)], drawsPerSeed / 2: seeds[(si*31+7)%len(seeds)]}
		for k := 0; k < drawsPerSeed; k++ {
			if r, ok := reseed[k]; ok {
				want.Seed(r)
				got.Seed(r)
			}
			op := pick.Intn(1 << 20)
			if w, g := drawMixed(want, op), drawMixed(got, op); w != g {
				t.Fatalf("seed %d (reseeded %v): draw %d (op %d) = %#x, math/rand %#x", seed, reseed, k, op%8, g, w)
			}
		}
	}
}

func TestShortStreamsStayCompact(t *testing.T) {
	var s Source
	r := rand.New(&s)
	// Seed and a stream's first window draws build no 607-word state.
	allocs := testing.AllocsPerRun(20, func() {
		r.Seed(7)
		for k := 0; k < window; k++ {
			r.Uint64()
		}
	})
	if allocs != 0 || s.vec != nil {
		t.Fatalf("%d draws allocated %v times (state built: %v)", window, allocs, s.vec != nil)
	}
	r.Uint64()
	if s.vec == nil {
		t.Errorf("draw %d did not build the state", window+1)
	}
}

// BenchmarkSeedDraw7 is a stream's typical life here: seeded, then
// seven draws.
func BenchmarkSeedDraw7(b *testing.B) {
	b.Run("lazyrand", func(b *testing.B) {
		r := New(1)
		for i := 0; i < b.N; i++ {
			r.Seed(int64(i))
			for k := 0; k < 7; k++ {
				r.Float64()
			}
		}
	})
	b.Run("math-rand", func(b *testing.B) {
		r := rand.New(rand.NewSource(1))
		for i := 0; i < b.N; i++ {
			r.Seed(int64(i))
			for k := 0; k < 7; k++ {
				r.Float64()
			}
		}
	})
}

// BenchmarkDraw is the cost of one Float64 draw (through Int63) once
// the stream is running.
func BenchmarkDraw(b *testing.B) {
	b.Run("lazyrand", func(b *testing.B) {
		r := New(1)
		for i := 0; i < b.N; i++ {
			r.Float64()
		}
	})
	b.Run("math-rand", func(b *testing.B) {
		r := rand.New(rand.NewSource(1))
		for i := 0; i < b.N; i++ {
			r.Float64()
		}
	})
}
