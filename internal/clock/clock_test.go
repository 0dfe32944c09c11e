package clock

import (
	"testing"
	"time"
)

func TestRealClockBasics(t *testing.T) {
	c := Real{}
	t0 := c.Now()
	c.Sleep(time.Millisecond)
	if c.Now().Sub(t0) <= 0 {
		t.Fatal("clock did not advance across Sleep")
	}

	done := make(chan struct{})
	af := c.AfterFunc(time.Millisecond, func() { close(done) })
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("AfterFunc never ran")
	}
	if af.Stop() {
		t.Fatal("Stop after fire reported prevention")
	}
}

func TestRealAfterFuncStop(t *testing.T) {
	c := Real{}
	fired := make(chan struct{}, 1)
	tm := c.AfterFunc(time.Hour, func() { fired <- struct{}{} })
	if !tm.Stop() {
		t.Fatal("Stop of far-future timer did not prevent firing")
	}
	select {
	case <-fired:
		t.Fatal("stopped timer fired")
	case <-time.After(10 * time.Millisecond):
	}
}
