package main

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"strings"

	edmac "github.com/edmac-project/edmac"
)

// rng is splitmix64: small, fast and fully determined by its seed, so a
// workload's inputs are a pure function of (seed, stream).
type rng struct{ s uint64 }

func newRNG(seed int64, stream uint64) *rng {
	r := &rng{s: uint64(seed)*0x9E3779B97F4A7C15 ^ stream*0xD1B54A32D192ED03}
	r.next()
	return r
}

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// float returns a uniform draw in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// shuffled returns a random order of [0, n).
func (r *rng) shuffled(n int) []int {
	out := make([]int, n)
	for i := range out {
		j := r.intn(i + 1)
		out[i], out[j] = out[j], i
	}
	return out
}

// permutation is a seeded bijection of [0, n) (a 4-round Feistel network
// on 24 bits, cycle-walked into range), so the i-th request of a stream
// is computed on demand and no two indices below n ever collide.
type permutation struct {
	n    uint32
	keys [4]uint32
}

const feistelBits = 12

func newPermutation(seed int64, stream uint64, n uint32) permutation {
	if n > 1<<(2*feistelBits) {
		panic("permutation domain too large")
	}
	r := newRNG(seed, stream)
	p := permutation{n: n}
	for i := range p.keys {
		p.keys[i] = uint32(r.next())
	}
	return p
}

func (p permutation) at(i uint32) uint32 {
	x := i
	for {
		l, r := x>>feistelBits, x&(1<<feistelBits-1)
		for _, k := range p.keys {
			h := (r ^ k) * 0x9E3779B1
			l, r = r, l^((h>>16)&(1<<feistelBits-1))
		}
		x = l<<feistelBits | r
		if x < p.n {
			return x
		}
	}
}

// --- optimize requests --------------------------------------------------

// The requirement grid of the optimize workloads: energy budgets in
// 0.1 mJ steps from 20 mJ, and delay bounds in 1 ms steps from a floor
// every protocol meets in the default scenario.
const (
	gridBudgets = 1000
	gridDelays  = 3000
	delayFloor  = 3.0 // s
)

// optimizeGridSize is the number of distinct relaxed optimize requests.
const optimizeGridSize = 5 * gridBudgets * gridDelays

// optimizeAt returns the request of grid cell c.
func optimizeAt(c uint32) edmac.OptimizeRequest {
	protos := edmac.Protocols()
	p := protos[c%5]
	e := (c / 5) % gridBudgets
	l := c / (5 * gridBudgets)
	return edmac.OptimizeRequest{
		Protocol: p,
		Requirements: edmac.Requirements{
			EnergyBudget: float64(200+e) / 1e4,
			MaxDelay:     delayFloor + float64(l)/1e3,
		},
		Relaxed: true,
	}
}

// optimizeStream is the optimize-cold request sequence: request i is grid
// cell perm(i), so every request in a run is distinct and misses every
// cache.
type optimizeStream struct{ perm permutation }

func newOptimizeStream(seed int64) optimizeStream {
	return optimizeStream{perm: newPermutation(seed, 1, optimizeGridSize)}
}

func (s optimizeStream) request(i int) edmac.OptimizeRequest {
	return optimizeAt(s.perm.at(uint32(i % optimizeGridSize)))
}

func (s optimizeStream) body(i int) []byte {
	data, err := json.Marshal(s.request(i))
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	return data
}

// spellOptimize writes an optimize body in one of 36 spellings: every
// order of the three top-level fields, both orders of the requirement
// fields, and three whitespace styles. The canonical cache key must fold
// them all onto one entry.
func spellOptimize(req edmac.OptimizeRequest, variant int) []byte {
	num := func(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }
	sep, colon, open, close := ",", ":", "{", "}"
	switch variant % 3 {
	case 1:
		sep, colon = ", ", ": "
	case 2:
		sep, colon, open, close = ",\n  ", " : ", "{\n  ", "\n}"
	}
	budget := `"energy_budget"` + colon + num(req.Requirements.EnergyBudget)
	delay := `"max_delay"` + colon + num(req.Requirements.MaxDelay)
	reqs := budget + sep + delay
	if variant/3%2 == 1 {
		reqs = delay + sep + budget
	}
	fields := []string{
		`"protocol"` + colon + strconv.Quote(string(req.Protocol)),
		`"requirements"` + colon + open + reqs + close,
		`"relaxed"` + colon + strconv.FormatBool(req.Relaxed),
	}
	order := [6][3]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}}[variant/6%6]
	parts := []string{fields[order[0]], fields[order[1]], fields[order[2]]}
	return []byte(open + strings.Join(parts, sep) + close)
}

const spellings = 36

// --- serve-mixed requests -----------------------------------------------

// The serve-mixed traffic is cmd/edload's default load: its mix
// optimize=4,simulate=1,suite=0,jobs=1 in edload's round-robin order
// (mixedCycle), 8 distinct optimize bodies as with its -distinct 8, and
// its simulated lengths, 30 s per /v1/simulate and 40 s per job cell.
// Unlike edload's, each simulation and job carries a seed of its own and
// a builtin scenario drawn from the seed, so none repeats. The rate and
// the limit are this benchmark's choice: at this rate the two workers
// are busy about a fifth of the time on a 2-core host, so a request
// seldom queues behind a simulation, and the limit is about twice the
// p99 latency such a host measures.
const (
	mixedRate      = 120.0 // offered requests per second
	mixedLimit     = 0.060 // latency limit, s
	mixedHitBodies = 8
	mixedSimS      = 30.0 // simulated seconds per /v1/simulate
	mixedJobS      = 40.0 // simulated seconds per job cell
)

type kind uint8

const (
	kindHit kind = iota
	kindSimulate
	kindJob
)

func (k kind) String() string { return [...]string{"hit", "simulate", "job"}[k] }

// mixedCycle is edload's round-robin expansion of its default mix: the
// kind of request k is mixedCycle[k%6].
var mixedCycle = [...]kind{kindHit, kindSimulate, kindJob, kindHit, kindHit, kindHit}

// mixedReq is one generated serve-mixed request.
type mixedReq struct {
	due    float64 // seconds after the open loop starts
	kind   kind
	hit    int // hit body index
	spell  int // hit body spelling
	target int // simulate or job target index
	seed   int64
}

// mixedHitRequests returns the small set of optimize requests the hits
// repeat, drawn from the seed.
func mixedHitRequests(seed int64) []edmac.OptimizeRequest {
	perm := newPermutation(seed, 2, optimizeGridSize)
	out := make([]edmac.OptimizeRequest, mixedHitBodies)
	for i := range out {
		out[i] = optimizeAt(perm.at(uint32(i)))
	}
	return out
}

// mixedSchedule draws the requests due in the first `seconds` of the
// open loop: Poisson arrivals at mixedRate, kinds in mixedCycle order,
// and each payload drawn from the seed. Simulations and jobs go through
// their targets in a seeded order, all of them before any repeats, so
// every run of a given length spends about the same on them whatever the
// seed. They carry the request index as their seed, so no two of them
// share a cache key.
func mixedSchedule(seed int64, seconds float64, simTargets, jobTargets int) []mixedReq {
	r := newRNG(seed, 3)
	sims, jobs := r.shuffled(simTargets), r.shuffled(jobTargets)
	var out []mixedReq
	t := 0.0
	for k, nSim, nJob := 0, 0, 0; ; k++ {
		t += -math.Log(1-r.float()) / mixedRate
		if t >= seconds {
			return out
		}
		q := mixedReq{due: t, kind: mixedCycle[k%len(mixedCycle)], seed: int64(k) + 1}
		switch q.kind {
		case kindJob:
			q.target = jobs[nJob%jobTargets]
			nJob++
		case kindSimulate:
			q.target = sims[nSim%simTargets]
			nSim++
		default:
			q.hit, q.spell = r.intn(mixedHitBodies), r.intn(spellings)
		}
		out = append(out, q)
	}
}

// simTarget is a builtin scenario with a protocol and the effective
// parameter vector the suite golden bargained for it.
type simTarget struct {
	scenario string
	protocol edmac.Protocol
	params   []float64
}

func simulateBody(t simTarget, seed int64) []byte {
	data, err := json.Marshal(edmac.SimulateRequest{
		Protocol: t.protocol, ScenarioName: t.scenario, Params: t.params,
		Options: edmac.SimOptions{Duration: mixedSimS, Seed: seed},
	})
	if err != nil {
		panic(err)
	}
	return data
}

// jobTarget is one (scenario, protocol) cell of the builtin matrix.
type jobTarget struct {
	scenario string
	protocol edmac.Protocol
}

func jobBody(t jobTarget, seed int64) []byte {
	return []byte(fmt.Sprintf(`{"suite":{"scenarios":[%q],"protocols":[%q],"options":{"duration":%v,"seed":%d}}}`,
		t.scenario, t.protocol, mixedJobS, seed))
}
