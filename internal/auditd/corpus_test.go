package auditd

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"deaduops/internal/ref"
)

// checkRandom holds one RandomPrograms result to its contract: n
// programs named random-1..random-n, each equal to a fresh generation
// from its seed, returned at full capacity so an append cannot write
// into the shared prefix, with the retained prefix within its cap.
func checkRandom(t *testing.T, n int) []Program {
	t.Helper()
	got, err := RandomPrograms(n)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != n || cap(got) != n {
		t.Fatalf("RandomPrograms(%d): len %d cap %d, want both %d", n, len(got), cap(got), n)
	}
	for i, p := range got {
		seed := i + 1
		if want := fmt.Sprintf("random-%d", seed); p.Name != want {
			t.Fatalf("RandomPrograms(%d)[%d].Name = %q, want %q", n, i, p.Name, want)
		}
		fresh, err := ref.Generate(uint64(seed), ref.DefaultGenConfig())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(p.Prog, fresh) {
			t.Fatalf("RandomPrograms(%d)[%d] differs from a fresh ref.Generate(%d)", n, i, seed)
		}
	}
	randomPrefix.mu.Lock()
	retained := len(randomPrefix.progs)
	randomPrefix.mu.Unlock()
	if retained > maxRetainedRandom {
		t.Fatalf("retained %d random programs, cap is %d", retained, maxRetainedRandom)
	}
	return got
}

// TestRandomProgramsSharedPrefix pins the per-process random prefix:
// growing it, reading a shorter slice of it, reaching past its cap and
// calling it concurrently all return exactly what per-call generation
// returned, and no caller can write into what another caller holds.
func TestRandomProgramsSharedPrefix(t *testing.T) {
	first := checkRandom(t, 50)
	short := checkRandom(t, 10)
	for i := range short {
		if short[i].Prog != first[i].Prog {
			t.Fatalf("random-%d regenerated instead of served from the prefix", i+1)
		}
	}
	_ = append(short, Program{Name: "appended"})
	if again := checkRandom(t, 11); again[10].Name != "random-11" {
		t.Fatalf("an append to a returned slice wrote %q into the shared prefix", again[10].Name)
	}

	past := checkRandom(t, maxRetainedRandom+5)
	if past[0].Prog != first[0].Prog {
		t.Fatal("a call past the cap did not reuse the retained prefix")
	}

	// Concurrent callers, from an empty prefix so they race to grow it.
	randomPrefix.mu.Lock()
	randomPrefix.progs = nil
	randomPrefix.mu.Unlock()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			got, err := RandomPrograms(n)
			if err != nil {
				t.Error(err)
				return
			}
			for i, p := range got {
				if want := fmt.Sprintf("random-%d", i+1); p.Name != want || !reflect.DeepEqual(p.Prog, past[i].Prog) {
					t.Errorf("concurrent RandomPrograms(%d)[%d] = %q, want %q as generated before", n, i, p.Name, want)
					return
				}
			}
		}([]int{7, 60, 200, maxRetainedRandom + 2}[g])
	}
	wg.Wait()
}
