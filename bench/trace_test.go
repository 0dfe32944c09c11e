package main

import "testing"

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Name: spanClient, Start: 0, End: 100},
		// Two children that overlap each other: they cover 10..50 once.
		{ID: 2, Parent: 1, Name: spanRun, Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: spanCompile, Start: 30, End: 50},
		// A child that sticks out of its parent counts only inside it.
		{ID: 4, Parent: 1, Name: spanHook, Start: 90, End: 130},
		// A grandchild takes from its parent, not from the root.
		{ID: 5, Parent: 2, Name: spanLockWait, Start: 15, End: 25},
		// The parent of this one was never recorded.
		{ID: 6, Parent: 99, Name: spanDispatch, Start: 60, End: 65},
	}
	self, orphans := selfTimes(spans)
	want := []int64{100 - 40 - 10, 30 - 10, 20, 40, 10, 5}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("self time of span %d = %d, want %d", spans[i].ID, self[i], want[i])
		}
	}
	if orphans != 1 {
		t.Errorf("orphans = %d, want 1", orphans)
	}

	// Without children a span's self time is its duration.
	self, orphans = selfTimes(spans[:1])
	if self[0] != 100 || orphans != 0 {
		t.Errorf("lone root: self %d, orphans %d", self[0], orphans)
	}
}

// Children nested without overlap: the self times add up to the root.
func TestSelfTimesSumToRoot(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Start: 0, End: 1000},
		{ID: 2, Parent: 1, Start: 100, End: 700},
		{ID: 3, Parent: 2, Start: 150, End: 300},
		{ID: 4, Parent: 3, Start: 200, End: 250},
		{ID: 5, Parent: 2, Start: 400, End: 650},
		{ID: 6, Parent: 1, Start: 800, End: 900},
	}
	self, _ := selfTimes(spans)
	var sum int64
	for _, s := range self {
		sum += s
	}
	if sum != 1000 {
		t.Errorf("self times sum to %d, want the root's 1000", sum)
	}
}
