package main

import "testing"

func TestCalibrator(t *testing.T) {
	c, err := newCalibrator()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.hostSpeed(); err == nil {
		t.Error("hostSpeed before any slice: no error")
	}
	// The chain is one cycle through every element: following it from 0
	// comes back to 0 after exactly len(chain) steps and not before.
	at, steps := uint32(0), 0
	for {
		at = c.chain[at]
		steps++
		if at == 0 || steps > len(c.chain) {
			break
		}
	}
	if steps != len(c.chain) {
		t.Errorf("chain returns to its start after %d steps, want %d", steps, len(c.chain))
	}
	c.slice()
	c.slice()
	speed, err := c.hostSpeed()
	if err != nil || speed <= 0 {
		t.Errorf("hostSpeed = %v, %v, want a positive speed", speed, err)
	}
	if len(c.roundTrips) != 2 || len(c.loads) != 2 {
		t.Errorf("%d round-trip and %d load rates after 2 slices", len(c.roundTrips), len(c.loads))
	}
	c.close() // returns only once the echo goroutine has ended
	c.slice()
	if _, err := c.hostSpeed(); err == nil {
		t.Error("hostSpeed after close: the failed round trip is not reported")
	}
}
