package main

import (
	"errors"
	"fmt"
	"math"
	"net"
	"sync"
	"time"
)

// The host the benchmark runs on is a few cores of a shared machine, and
// its speed drifts: over a quarter of an hour the same binary on the same
// inputs lost a third of its throughput while the other core sat idle and
// the kernel reported no steal, and two fixed kernels that share nothing
// with the program lost speed with it (correlation 0.9 over 30-second
// blocks). A run cannot average that away, because the drift is slower than
// a run. So every run measures the host as well: between its measuring
// windows it times the two kernels below, and the clock metrics are
// reported at reference host speed. On two sets of ten runs twenty minutes
// apart that took the spread within a set from 8-31 % to 3-15 % and the
// difference between the sets' medians from 24 % to 10 %; README.md has
// the table, and what the normalisation can get wrong.
//
// The kernels are the two things a statement spends its time on that are
// not the program's own code: a round trip between two goroutines over a
// loopback TCP connection (system calls, the network poller, goroutine
// wake-ups, which cost more when the hypervisor is busy), and dependent
// loads from a block of memory larger than the core's own caches (the
// shared last-level cache and DRAM, which neighbours contend for). Neither
// allocates, so the size of the program's heap does not move them.

const (
	// One calibration slice runs each kernel for sliceEach.
	sliceEach = 100 * time.Millisecond
	// chainBytes is the size of the pointer chain, a power of two: eight
	// times the 4 MiB a core has to itself on the reference host.
	chainBytes = 32 << 20
	// The kernels' rates on the reference host (the 2-core sandbox the
	// baseline in README.md was measured on): medians of 80 runs. Host
	// speed 1 means both kernels run at these rates.
	refRoundTripsPerSec = 125_000
	refLoadsPerSec      = 4_900_000
)

// calibrator owns the two kernels and the rates they have measured.
type calibrator struct {
	lis      net.Listener
	conn     net.Conn
	echoDone sync.WaitGroup // the echo goroutine
	buf      []byte

	chain []uint32
	at    uint32

	roundTrips, loads []float64 // per second, one value per slice
	err               error     // the first failed round trip; hostSpeed reports it
}

func newCalibrator() (*calibrator, error) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("calibrator: %w", err)
	}
	c := &calibrator{lis: lis, buf: make([]byte, 64)}
	c.echoDone.Add(1)
	go c.echo()
	c.conn, err = net.Dial("tcp", lis.Addr().String())
	if err != nil {
		c.close()
		return nil, fmt.Errorf("calibrator: %w", err)
	}

	// Element i points to (a*i + b) mod n. With n a power of two, a-1 a
	// multiple of 4 and b odd, that is one cycle through every element,
	// and its jumps look random to a prefetcher, so no cache smaller than
	// the chain can help.
	n := uint32(chainBytes / 4)
	c.chain = make([]uint32, n)
	for i := range c.chain {
		c.chain[i] = (1664525*uint32(i) + 1013904223) % n
	}
	return c, nil
}

// echo answers every request on the first connection until it is closed.
func (c *calibrator) echo() {
	defer c.echoDone.Done()
	conn, err := c.lis.Accept()
	if err != nil {
		return
	}
	defer conn.Close() //nolint:errcheck // nothing was written that matters
	buf := make([]byte, 64)
	for {
		if _, err := conn.Read(buf); err != nil {
			return
		}
		if _, err := conn.Write(buf[:32]); err != nil {
			return
		}
	}
}

// close stops the echo goroutine and waits for it.
func (c *calibrator) close() {
	if c.conn != nil {
		c.conn.Close() //nolint:errcheck // closing is the stop signal
	}
	c.lis.Close() //nolint:errcheck // unblocks an Accept that never got a peer
	c.echoDone.Wait()
}

// roundTrip sends one request and waits for its echo.
func (c *calibrator) roundTrip() error {
	if _, err := c.conn.Write(c.buf[:32]); err != nil {
		return err
	}
	_, err := c.conn.Read(c.buf)
	return err
}

// slice times both kernels once.
func (c *calibrator) slice() {
	n, start := 0, time.Now()
	for c.err == nil && time.Since(start) < sliceEach {
		for i := 0; i < 50 && c.err == nil; i++ {
			c.err = c.roundTrip()
		}
		n += 50
	}
	c.roundTrips = append(c.roundTrips, float64(n)/time.Since(start).Seconds())

	n, start = 0, time.Now()
	at := c.at
	for time.Since(start) < sliceEach {
		for i := 0; i < 5000; i++ {
			at = c.chain[at]
		}
		n += 5000
	}
	c.at = at
	c.loads = append(c.loads, float64(n)/time.Since(start).Seconds())
}

// hostSpeed is how fast the host was during the run, as a share of the
// reference host's speed: the geometric mean of the two kernels' median
// rates over their reference rates.
func (c *calibrator) hostSpeed() (float64, error) {
	if c.err != nil {
		return 0, fmt.Errorf("calibrator: %w", c.err)
	}
	if len(c.loads) == 0 {
		return 0, errors.New("calibrator: no slice was timed")
	}
	return math.Sqrt(median(c.roundTrips) / refRoundTripsPerSec * median(c.loads) / refLoadsPerSec), nil
}
