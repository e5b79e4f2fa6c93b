package bitset

import (
	"math/rand"
	"testing"
)

func TestBasicOps(t *testing.T) {
	s := New(130)
	if !s.Empty() || s.Len() != 0 {
		t.Fatal("new set not empty")
	}
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 129} {
		s.Add(i)
		if !s.Contains(i) {
			t.Fatalf("Contains(%d) = false after Add", i)
		}
	}
	if s.Len() != 8 {
		t.Fatalf("Len = %d, want 8", s.Len())
	}
	s.Remove(64)
	if s.Contains(64) {
		t.Fatal("Contains(64) after Remove")
	}
	if s.Contains(-1) || s.Contains(130) {
		t.Fatal("out-of-universe Contains must be false")
	}
}

func TestAddOutOfUniversePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Add(1000) on universe 10 did not panic")
		}
	}()
	New(10).Add(1000)
}

func TestIterationAscending(t *testing.T) {
	s := New(200)
	want := []int{3, 7, 63, 64, 100, 150, 199}
	// Insert in shuffled order; iteration must still be ascending.
	for _, i := range []int{150, 3, 199, 64, 7, 100, 63} {
		s.Add(i)
	}
	var got []int
	for i := s.Next(0); i >= 0; i = s.Next(i + 1) {
		got = append(got, i)
	}
	if len(got) != len(want) {
		t.Fatalf("Next walk yielded %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Next walk yielded %v, want %v", got, want)
		}
	}
}

func TestOrAndIntersectInto(t *testing.T) {
	a, b, dst := New(100), New(100), New(100)
	a.Add(1)
	a.Add(50)
	a.Add(99)
	b.Add(50)
	b.Add(2)
	if n := a.IntersectInto(b, dst); n != 1 {
		t.Fatalf("IntersectInto len = %d, want 1", n)
	}
	if !dst.Contains(50) || dst.Contains(1) || dst.Contains(2) {
		t.Fatal("IntersectInto content wrong")
	}
	a.Or(b)
	for _, i := range []int{1, 2, 50, 99} {
		if !a.Contains(i) {
			t.Fatalf("Or missing %d", i)
		}
	}
	if a.Len() != 4 {
		t.Fatalf("Or Len = %d, want 4", a.Len())
	}
}

func TestAgainstMapModel(t *testing.T) {
	const n = 257
	rng := rand.New(rand.NewSource(1))
	s := New(n)
	model := map[int]bool{}
	for step := 0; step < 5000; step++ {
		i := rng.Intn(n)
		if rng.Intn(2) == 0 {
			s.Add(i)
			model[i] = true
		} else {
			s.Remove(i)
			delete(model, i)
		}
	}
	if s.Len() != len(model) {
		t.Fatalf("Len = %d, model has %d", s.Len(), len(model))
	}
	for i := 0; i < n; i++ {
		if s.Contains(i) != model[i] {
			t.Fatalf("Contains(%d) = %v, model %v", i, s.Contains(i), model[i])
		}
	}
	prev := -1
	for i := s.Next(0); i >= 0; i = s.Next(i + 1) {
		if i <= prev {
			t.Fatalf("iteration not ascending: %d after %d", i, prev)
		}
		prev = i
	}
}

func TestNextEdgeCases(t *testing.T) {
	s := New(64)
	if s.Next(0) != -1 {
		t.Fatal("Next on empty set")
	}
	s.Add(0)
	if s.Next(-5) != 0 {
		t.Fatal("Next(-5) should clamp to 0")
	}
	if s.Next(1) != -1 {
		t.Fatal("Next past last element")
	}
	if s.Next(64) != -1 || s.Next(1000) != -1 {
		t.Fatal("Next past universe")
	}
}
