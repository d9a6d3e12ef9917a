package sim

import (
	"testing"
	"testing/quick"
)

func TestResourceSerializes(t *testing.T) {
	var r Resource
	s1, e1 := r.Reserve(0, 100)
	if s1 != 0 || e1 != 100 {
		t.Fatalf("first reservation (%d,%d), want (0,100)", s1, e1)
	}
	s2, e2 := r.Reserve(50, 100)
	if s2 != 100 || e2 != 200 {
		t.Fatalf("overlapping reservation (%d,%d), want (100,200)", s2, e2)
	}
	s3, e3 := r.Reserve(500, 100)
	if s3 != 500 || e3 != 600 {
		t.Fatalf("idle-gap reservation (%d,%d), want (500,600)", s3, e3)
	}
	if freeAt, busy := r.State(); freeAt != 600 || busy != 300 {
		t.Fatalf("state (freeAt %d, busy %d), want (600, 300)", freeAt, busy)
	}
}

func TestResourceReservationsNeverOverlap(t *testing.T) {
	f := func(seed int64) bool {
		var r Resource
		from := Time(0)
		prevEnd := Time(0)
		x := uint64(seed)
		for i := 0; i < 100; i++ {
			x = x*6364136223846793005 + 1442695040888963407
			from += Time(x % 1000)
			dur := Time(x%97 + 1)
			start, end := r.Reserve(from, dur)
			if start < prevEnd || end != start+dur || start < from {
				return false
			}
			if freeAt, _ := r.State(); freeAt != end {
				return false
			}
			prevEnd = end
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
