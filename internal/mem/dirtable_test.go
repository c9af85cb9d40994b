package mem

import (
	"math/rand"
	"testing"
)

// TestDirTableMatchesMap drives the directory table and a plain map with
// the same lookups, insertions and updates — through several growths and
// over keys that collide in the low bits — and demands they agree.
func TestDirTableMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tab := newDirTable(4)
	ref := map[uint64]dirEntry{}
	for i := 0; i < 20_000; i++ {
		la := uint64(rng.Intn(3000)) << 10 // sparse, low-bit-aligned lines
		if i%3 == 0 {
			got, want := tab.find(la), ref[la]
			if _, ok := ref[la]; !ok {
				if got != nil {
					t.Fatalf("find(%#x) = %+v, want nil", la, *got)
				}
				continue
			}
			if got == nil || *got != want {
				t.Fatalf("find(%#x) = %v, want %+v", la, got, want)
			}
			continue
		}
		e := tab.get(la)
		want, ok := ref[la]
		if !ok {
			want = dirEntry{owner: -1}
		}
		if *e != want {
			t.Fatalf("get(%#x) = %+v, want %+v", la, *e, want)
		}
		e.sharers |= 1 << uint(rng.Intn(8))
		ref[la] = *e
	}
	if tab.n != len(ref) {
		t.Fatalf("table holds %d entries, map %d", tab.n, len(ref))
	}
	if tab.n*4 > len(tab.slots)*3 {
		t.Fatalf("table over 3/4 full: %d of %d slots", tab.n, len(tab.slots))
	}
}
