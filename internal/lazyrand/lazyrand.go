// Package lazyrand is math/rand's default generator with its seeding
// deferred word by word. A Source yields exactly the stream
// rand.NewSource yields for the same seed, bit for bit, through every
// rand.Rand method; it differs only in when it does the work.
//
// math/rand's source is Mitchell and Reeds' additive lagged-Fibonacci
// generator: 607 words of state, a tap 273 words behind the feed, and
// each draw adds the tap word into the feed word and returns the sum.
// Seeding fills all 607 words up front, and word i comes from three
// consecutive values of the Lehmer generator x ← 48271·x mod (2³¹−1)
// started at the normalised seed: x_{21+3i}, x_{22+3i} and x_{23+3i},
// packed as x_{21+3i}<<40 ^ x_{22+3i}<<20 ^ x_{23+3i} and XORed with a
// fixed seeding table. A Lehmer value x_k is x_0·48271^k mod (2³¹−1),
// one multiplication away from the seed once the powers are known, so a
// Source computes word i only when the stream first reads it. A stream
// that draws a handful of values computes a few dozen words instead of
// 607, allocates none of the 607-word state, and Seed costs O(1).
//
// The seeding table is math/rand's own (its rngCooked), recovered once
// at init from the first 607 outputs of rand.NewSource(1): after 607
// draws every word has been written exactly once, with its output, so
// the outputs are the state, and undoing the draws in reverse order
// restores the seeded state, from which the seed-1 Lehmer words are
// XORed out. Nothing is vendored, and a change to math/rand's stream
// would show up in this package's equivalence test.
package lazyrand

import "math/rand"

const (
	length  = 607       // words of generator state (math/rand's rngLen)
	tapLag  = 273       // the tap's lag behind the feed (rngTap)
	modulus = 1<<31 - 1 // the Lehmer seeding generator's prime modulus
	lehmer  = 48271     // its multiplier
	skipped = 21        // Lehmer steps before word 0's first value
	mask63  = 1<<63 - 1
	// zeroSeed replaces a seed that normalises to 0, as math/rand does.
	zeroSeed = 89482311
)

var (
	// jump[i] is 48271^(21+3i) mod (2³¹−1): the Lehmer jump from the
	// normalised seed to the first of word i's three values.
	jump [length]uint64
	// cooked is math/rand's seeding table, XORed into every word.
	cooked [length]int64
)

func init() {
	p := uint64(1)
	for k := 0; k < skipped; k++ {
		p = p * lehmer % modulus
	}
	for i := range jump {
		jump[i] = p
		p = p * lehmer % modulus * lehmer % modulus * lehmer % modulus
	}

	// After length draws from a fresh source each word has been written
	// once, with that draw's output: the outputs are the final state.
	src := rand.NewSource(1).(rand.Source64)
	var vec [length]int64
	tap, feed := 0, length-tapLag
	for k := 0; k < length; k++ {
		tap, feed = back(tap), back(feed)
		vec[feed] = int64(src.Uint64())
	}
	// Undo the draws, the last first: (tap, feed) now name the last
	// draw's words, and each earlier draw sits one word further on.
	for k := 0; k < length; k++ {
		vec[feed] -= vec[tap]
		tap, feed = on(tap), on(feed)
	}
	for i := range cooked {
		cooked[i] = vec[i] ^ lehmerWord(1, i)
	}
}

func back(i int) int {
	if i == 0 {
		return length - 1
	}
	return i - 1
}

func on(i int) int {
	if i == length-1 {
		return 0
	}
	return i + 1
}

// lehmerWord packs word i's three Lehmer values for the normalised
// seed x0, exactly as math/rand's seeding loop does.
func lehmerWord(x0 uint64, i int) int64 {
	x := x0 * jump[i] % modulus
	u := int64(x) << 40
	x = x * lehmer % modulus
	u ^= int64(x) << 20
	x = x * lehmer % modulus
	return u ^ int64(x)
}

// Source is math/rand's default source (rand.NewSource) computing each
// state word on its first read. It implements rand.Source64. Seed it
// before the first draw (New does); like rand.NewSource's source it is
// not safe for concurrent use.
//
// The first reads come in a fixed order. The first length−tapLag
// draws after Seed read words length−tapLag−1 down to 0 at the feed,
// and the first tapLag of them read words length−1 down to
// length−tapLag at the tap, each for the first time; every later read
// finds a word an earlier draw computed or wrote. So a count of draws
// stands in for a record of which words exist. The first window draws
// read only such new words and write a contiguous run of feed words, so
// a Source that has never drawn more than window values after a Seed
// keeps those words in lo and has no 607-word state at all.
type Source struct {
	tap, feed int
	x0        uint64 // the normalised seed, in [1, 2³¹−1)
	// fresh counts the draws left whose feed word is read for the
	// first time.
	fresh int
	vec   *[length]int64 // the state; nil until the stream outgrows lo
	// lo[j] is feed word length−tapLag−1−j, written by draw j+1 after
	// Seed, while vec is nil.
	lo [window]int64
}

// window is how many draws after Seed a Source serves from lo. Most of
// the simulator's and the traffic models' streams draw about seven.
const window = 16

// New returns a rand.Rand drawing the stream
// rand.New(rand.NewSource(seed)) draws.
func New(seed int64) *rand.Rand {
	s := new(Source)
	s.Seed(seed)
	return rand.New(s)
}

// Seed resets the source to seed's stream in O(1): no state word is
// computed until the stream reads it.
func (s *Source) Seed(seed int64) {
	s.tap = 0
	s.feed = length - tapLag
	s.fresh = length - tapLag
	seed %= modulus
	if seed < 0 {
		seed += modulus
	}
	if seed == 0 {
		seed = zeroSeed
	}
	s.x0 = uint64(seed)
}

// Int63 returns a non-negative pseudo-random 63-bit integer.
func (s *Source) Int63() int64 {
	if s.fresh > 0 {
		return int64(s.firstReads() & mask63)
	}
	return int64(s.step() & mask63)
}

// Uint64 returns a pseudo-random 64-bit integer.
func (s *Source) Uint64() uint64 {
	if s.fresh > 0 {
		return s.firstReads()
	}
	return s.step()
}

// step is math/rand's draw: move the tap and the feed one word back
// and add the tap word into the feed word. It is small enough to
// inline into Int63 and Uint64, so a running stream draws at
// math/rand's speed.
func (s *Source) step() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += length
	}
	s.feed--
	if s.feed < 0 {
		s.feed += length
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// firstReads is one of the first length−tapLag draws after Seed. It
// computes the words the draw reads for the first time, its feed word
// and, while the tap is in the upper length−tapLag.. words, its tap
// word, then draws. The feed never wraps in these draws.
func (s *Source) firstReads() uint64 {
	s.fresh--
	if s.vec == nil {
		if n := length - tapLag - 1 - s.fresh; n < window {
			// Draw n+1 reads tap word length−1−n and feed word
			// length−tapLag−1−n, both for the first time.
			s.tap, s.feed = length-1-n, length-tapLag-1-n
			x := s.seedWord(s.feed) + s.seedWord(s.tap)
			s.lo[n] = x
			return uint64(x)
		}
		// The stream outgrows lo: move the feed words it wrote into a
		// state, and recompute the tap words it read, which later draws
		// read again at the feed.
		s.vec = new([length]int64)
		for j, x := range s.lo {
			s.vec[length-tapLag-1-j] = x
			s.vec[length-1-j] = s.seedWord(length - 1 - j)
		}
	}
	f := s.feed - 1
	s.vec[f] = s.seedWord(f)
	t := s.tap - 1
	if t < 0 {
		t += length
	}
	if t >= length-tapLag {
		s.vec[t] = s.seedWord(t)
	}
	return s.step()
}

// seedWord is word i as Seed leaves it.
func (s *Source) seedWord(i int) int64 {
	return lehmerWord(s.x0, i) ^ cooked[i]
}
