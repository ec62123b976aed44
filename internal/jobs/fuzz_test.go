package jobs

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// FuzzReload throws arbitrary spill files at a restarting store: the
// same metadata bytes under two valid job names, and a result file for
// the first. Whatever the bytes, New must neither fail nor panic, every
// listed job must be done, named by its own metadata file and hold its
// result file's bytes, and the done count must match the listing —
// before and after GC. Spill directories outlive the process, so a
// truncated, corrupt or copied file is input like any other.
func FuzzReload(f *testing.F) {
	const idA, idB = "00000000000000aa", "00000000000000bb"
	// Seed with a real spilled job, renamed to idA: its metadata under
	// idB's name too is the copied-file case.
	dir := f.TempDir()
	s, err := New(Options{Workers: 1, SpillDir: dir})
	if err != nil {
		f.Fatal(err)
	}
	j, err := s.Complete("optimize", 1, []byte(`{"result":{}}`+"\n"))
	s.Close()
	if err != nil {
		f.Fatal(err)
	}
	meta, err := os.ReadFile(s.metaPath(j.id))
	if err != nil {
		f.Fatal(err)
	}
	result, err := os.ReadFile(s.resultPath(j.id))
	if err != nil {
		f.Fatal(err)
	}
	meta = bytes.ReplaceAll(meta, []byte(j.id), []byte(idA))
	f.Add(meta, result)
	// Truncated metadata, and an ID that points outside the directory.
	f.Add(meta[:len(meta)/2], result)
	f.Add(bytes.ReplaceAll(meta, []byte(idA), []byte("../"+idA)), result[:0])

	f.Fuzz(func(t *testing.T, meta, result []byte) {
		dir := t.TempDir()
		for _, name := range []string{idA + ".job.json", idB + ".job.json", idA + ".result"} {
			data := meta
			if name == idA+".result" {
				data = result
			}
			if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		s, err := New(Options{Workers: 1, SpillDir: dir})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		defer s.Close()
		check := func(when string) {
			list := s.List()
			if n := s.Counts()[Done]; n != len(list) {
				t.Fatalf("%s: Counts()[Done] = %d with %d jobs listed", when, n, len(list))
			}
			for _, snap := range list {
				if snap.ID != idA && snap.ID != idB {
					t.Fatalf("%s: job %q has no metadata file of its own", when, snap.ID)
				}
				if snap.State != Done {
					t.Fatalf("%s: job %s reloaded as %s", when, snap.ID, snap.State)
				}
				j, _ := s.Get(snap.ID)
				got, _, _ := j.Result()
				want, err := os.ReadFile(s.resultPath(snap.ID))
				if b, ok := got.([]byte); err != nil || !ok || !bytes.Equal(b, want) {
					t.Fatalf("%s: job %s result %q, result file %q (%v)", when, snap.ID, got, want, err)
				}
			}
		}
		check("after reload")
		s.GC(time.Now().Add(DefaultTTL + time.Hour))
		check("after GC")
	})
}
