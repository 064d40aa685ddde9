package main

import (
	"context"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"terradir/internal/core"
)

// op is one pre-generated operation. The system under test sees only the
// stream of these, never the generator or its seed.
type op struct {
	dest  core.NodeID
	src   int32 // server the operation is issued at (ignored behind a gateway)
	write bool
}

// verifyEvery is the host-verification sample: one operation in a hundred.
// Reading a host's state means parking its event loop, which under load
// takes milliseconds and forces a snapshot publish — at this sample rate it
// cut wide-unif's throughput five-fold when done between requests. So the
// sampled answers are kept and verified once the round's clock has stopped.
const verifyEvery = 100

// opTimeout bounds how long a round may wait for one operation. A lookup
// lost inside the overlay never completes on its own; the deadline turns it
// into a failure instead of a hang. It is set per round, not per operation,
// so the generator allocates nothing per request.
const opTimeout = 20 * time.Second

// round is what one measured round (a fixed count of operations) produced.
type round struct {
	start, end usage
	ops        int
	failed     int
	lat        []float64 // µs, ascending; every successful operation
	writeLat   []float64 // µs, ascending; the successful writes among them
	lag        []float64 // µs, ascending; open loop only: issue time − due time
	hops       int       // summed over successes
	firstErr   error
}

func (r *round) wall() time.Duration { return r.end.at.Sub(r.start.at) }

// outcome is what one operation produced. Outcomes live in a slice indexed
// like the operations; each is written by the one goroutine that ran its
// operation, so concurrent clients need no lock.
type outcome struct {
	lat   time.Duration
	lag   time.Duration // open loop only
	hops  int32
	err   error
	hosts []core.ServerID // set only for the verification sample
}

// fold turns the outcomes of ops into a round's aggregates.
func fold(r *round, ops []op, out []outcome, open bool) {
	for i := range out {
		o := &out[i]
		r.ops++
		if open {
			r.lag = append(r.lag, micros(o.lag))
		}
		if o.err != nil {
			r.failed++
			if r.firstErr == nil {
				r.firstErr = o.err
			}
			continue
		}
		r.hops += int(o.hops)
		r.lat = append(r.lat, micros(o.lat))
		if ops[i].write {
			r.writeLat = append(r.writeLat, micros(o.lat))
		}
	}
	sort.Float64s(r.lat)
	sort.Float64s(r.writeLat)
	sort.Float64s(r.lag)
}

// runOne executes o and stores its outcome, keeping the answer's hosts when
// the operation is in the verification sample.
func runOne(ctx context.Context, sys *system, o op, sampled bool, from time.Time, out *outcome) {
	a, err := sys.do(ctx, o)
	out.lat = time.Since(from)
	out.hops = int32(a.hops)
	out.err = err
	if err == nil && sampled {
		out.hosts = a.hosts
	}
}

// verifySampled checks the sampled answers against the hosts' real state.
// Callers run it after the clock has stopped.
func verifySampled(ctx context.Context, sys *system, ops []op, out []outcome) {
	for i := range out {
		if out[i].hosts != nil {
			out[i].err = sys.verify(ctx, ops[i], out[i].hosts)
		}
	}
}

// closedRound runs ops with `clients` callers that each wait for a reply
// before sending the next request. Latency runs from issue to reply.
func closedRound(sys *system, ops []op, clients, base int) round {
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	out := make([]outcome, len(ops))
	var next atomic.Int64
	var wg sync.WaitGroup
	r := round{start: readUsage()}
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(ops) {
					return
				}
				runOne(ctx, sys, ops[i], (base+i)%verifyEvery == 0, time.Now(), &out[i])
			}
		}()
	}
	wg.Wait()
	r.end = readUsage()
	verifySampled(ctx, sys, ops, out)
	fold(&r, ops, out, false)
	return r
}

// pacer releases arrivals on a fixed schedule from a goroutine pinned to its
// own OS thread, sleeping in nanosleep(2) with the thread's timer slack at
// its minimum. It never waits for an arrival that is already overdue.
//
// Neither stock way of waiting works here (README has the table):
// time.Sleep in an idle Go process ends in epoll_wait, whose timeout has
// millisecond granularity, so a 500 µs sleep returns up to a millisecond
// late; and yielding the processor in a loop until the due time keeps one of
// the host's two CPUs scheduling the generator, which raised this workload's
// median latency from 0.3 ms to 2.5 ms.
type pacer struct {
	start    time.Time
	interval time.Duration
}

// prSetTimerSlack is prctl(2)'s PR_SET_TIMERSLACK: how late, in nanoseconds,
// the kernel may wake the calling thread from a timed sleep (default 50 µs;
// 0 restores the default).
const prSetTimerSlack = 29

// pin binds the calling goroutine to its thread and minimises the thread's
// timer slack; the returned function undoes both.
func (p *pacer) pin() (unpin func()) {
	runtime.LockOSThread()
	syscall.Syscall(syscall.SYS_PRCTL, prSetTimerSlack, 1, 0)
	return func() {
		syscall.Syscall(syscall.SYS_PRCTL, prSetTimerSlack, 0, 0)
		runtime.UnlockOSThread()
	}
}

// wait sleeps until arrival i is due and returns its due time.
func (p *pacer) wait(i int) time.Time {
	due := p.start.Add(time.Duration(i) * p.interval)
	if d := time.Until(due); d > 0 {
		ts := syscall.NsecToTimespec(int64(d))
		syscall.Nanosleep(&ts, nil) // an early return (EINTR) only issues early by less than it slept
	}
	return due
}

// maxInFlight bounds the open loop's outstanding requests. Reaching it means
// the system has stopped keeping up; the pacer then blocks, which shows as
// generator lag and invalidates the run.
const maxInFlight = 8192

// openRounds issues ops at `rate` per second regardless of replies, as
// independent users would, and cuts the stream into rounds of roundOps
// arrivals. Latency runs from each arrival's due time, so a stall is charged
// to every request it delayed.
func openRounds(sys *system, ops []op, rate float64, roundOps, base int) []round {
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout+time.Duration(float64(len(ops))/rate*float64(time.Second)))
	defer cancel()
	out := make([]outcome, len(ops))
	p := pacer{start: time.Now().Add(10 * time.Millisecond), interval: time.Duration(float64(time.Second) / rate)}
	defer p.pin()()
	sem := make(chan struct{}, maxInFlight)
	var marks []usage
	var wg sync.WaitGroup
	for i := range ops {
		due := p.wait(i)
		if i%roundOps == 0 {
			marks = append(marks, readUsage())
		}
		sem <- struct{}{}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out[i].lag = time.Since(due)
			runOne(ctx, sys, ops[i], (base+i)%verifyEvery == 0, due, &out[i])
			<-sem
		}(i)
	}
	wg.Wait()
	marks = append(marks, readUsage())
	verifySampled(ctx, sys, ops, out)
	var rounds []round
	for k := 0; k+1 < len(marks); k++ {
		lo, hi := k*roundOps, min((k+1)*roundOps, len(ops))
		r := round{start: marks[k], end: marks[k+1]}
		fold(&r, ops[lo:hi], out[lo:hi], true)
		rounds = append(rounds, r)
	}
	return rounds
}
