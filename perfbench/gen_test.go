package main

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	edmac "github.com/edmac-project/edmac"
)

func TestEqualSeedsGiveEqualStreams(t *testing.T) {
	a, b, other := newOptimizeStream(7), newOptimizeStream(7), newOptimizeStream(8)
	differ := false
	for i := 0; i < 2000; i++ {
		if !bytes.Equal(a.body(i), b.body(i)) {
			t.Fatalf("request %d differs between equal seeds", i)
		}
		differ = differ || !bytes.Equal(a.body(i), other.body(i))
	}
	if !differ {
		t.Fatal("seeds 7 and 8 give the same optimize stream")
	}

	s1, s2 := mixedSchedule(7, 5, 60, 75), mixedSchedule(7, 5, 60, 75)
	if !reflect.DeepEqual(s1, s2) {
		t.Fatal("equal seeds give different serve-mixed schedules")
	}
	if reflect.DeepEqual(s1, mixedSchedule(8, 5, 60, 75)) {
		t.Fatal("seeds 7 and 8 give the same serve-mixed schedule")
	}
	if !reflect.DeepEqual(mixedHitRequests(7), mixedHitRequests(7)) {
		t.Fatal("equal seeds give different hit bodies")
	}
}

func TestMixedScheduleCyclesKindsAndTargets(t *testing.T) {
	const simTargets, jobTargets = 7, 5
	sched := mixedSchedule(3, 60, simTargets, jobTargets)
	seen := map[kind][]int{}
	for k, q := range sched {
		if q.kind != mixedCycle[k%len(mixedCycle)] {
			t.Fatalf("request %d is a %v, want a %v", k, q.kind, mixedCycle[k%len(mixedCycle)])
		}
		seen[q.kind] = append(seen[q.kind], q.target)
	}
	for kd, n := range map[kind]int{kindSimulate: simTargets, kindJob: jobTargets} {
		targets := seen[kd]
		if len(targets) < 2*n {
			t.Fatalf("only %d %vs", len(targets), kd)
		}
		// Every target once before any repeats, in the same order each round.
		for i, x := range targets[:n] {
			for _, y := range targets[:i] {
				if x == y {
					t.Fatalf("%v target %d repeats within the first %d: %v", kd, x, n, targets[:n])
				}
			}
			if targets[i+n] != x {
				t.Fatalf("%v targets %v: the second round differs", kd, targets[:2*n])
			}
		}
	}
}

func TestOptimizeStreamIsDistinct(t *testing.T) {
	s := newOptimizeStream(3)
	seen := map[uint32]int{}
	for i := 0; i < 50000; i++ {
		c := s.perm.at(uint32(i))
		if c >= optimizeGridSize {
			t.Fatalf("cell %d out of range", c)
		}
		if j, ok := seen[c]; ok {
			t.Fatalf("requests %d and %d share grid cell %d", j, i, c)
		}
		seen[c] = i
	}
}

func TestSpellingsDecodeAlike(t *testing.T) {
	req := optimizeAt(12345)
	for v := 0; v < spellings; v++ {
		var got edmac.OptimizeRequest
		if err := decodeStrict(spellOptimize(req, v), &got); err != nil {
			t.Fatalf("spelling %d: %v\n%s", v, err, spellOptimize(req, v))
		}
		if !reflect.DeepEqual(got, req) {
			t.Fatalf("spelling %d decodes to %+v, want %+v", v, got, req)
		}
	}
	canonical, _ := json.Marshal(req)
	if bytes.Equal(spellOptimize(req, 1), canonical) && bytes.Equal(spellOptimize(req, 2), canonical) {
		t.Fatal("spellings do not vary the wire form")
	}
}
