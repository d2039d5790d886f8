package pim

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// LaunchResult reports the outcome of running the loaded programs on a set
// of DPUs of one rank.
type LaunchResult struct {
	// Duration is the virtual execution time of the launch: the slowest
	// DPU's pipeline + DMA time.
	Duration time.Duration
	// PerDPU is each launched DPU's virtual execution time, indexed in the
	// order the DPU indices were passed to Launch.
	PerDPU []time.Duration
	// Instructions is the aggregate instruction count across DPUs.
	Instructions int64
}

// Launch runs the loaded kernel on each listed DPU and blocks until all
// complete (the DPU_SYNCHRONOUS mode of dpu_launch). The list is checked
// before any DPU runs: an index out of range or listed twice fails with
// ErrBadDPU, a DPU without a program with ErrNoProgram.
//
// min(GOMAXPROCS, len(dpus)) workers pull the DPUs in list order and run
// them one at a time each. A worker runs a DPU's tasklets on goroutines it
// reuses for every DPU it runs, and the tasklets take turns in id order:
// each runs until it reaches Barrier or returns, so one tasklet of a DPU
// runs at a time and the host order is fixed. Every goroutine has exited
// when Launch returns. A DPU's virtual time depends only on its aggregate
// instruction count and DMA time, never on the host order, so the result
// is the same on any host.
//
// If kernels fail, the error names the failing DPU listed first; DPUs
// listed after it may not have run. The returned duration covers only
// in-DPU execution; host-side polling costs are charged by the SDK/backend
// layers that call this.
func (r *Rank) Launch(dpus []int) (LaunchResult, error) {
	if !r.busy.CompareAndSwap(false, true) {
		return LaunchResult{}, ErrBusy
	}
	defer r.busy.Store(false)

	kernels, err := r.programs(dpus)
	if err != nil {
		return LaunchResult{}, err
	}
	runs := make([]dpuRun, len(dpus))
	var (
		next   atomic.Int64
		failed atomic.Bool
		wg     sync.WaitGroup
	)
	work := func() {
		w := &worker{wg: &wg, done: make(chan struct{}, 1)}
		defer w.close()
		for !failed.Load() {
			i := int(next.Add(1) - 1)
			if i >= len(dpus) {
				return
			}
			if runs[i] = w.run(r, dpus[i], kernels[i]); runs[i].err != nil {
				failed.Store(true)
			}
		}
	}
	// The calling goroutine is one of the workers.
	for range min(runtime.GOMAXPROCS(0), len(dpus)) - 1 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()

	// DPUs are pulled in list order, so every DPU listed before a failing
	// one has run: the first failure in the list is the one to report.
	res := LaunchResult{PerDPU: make([]time.Duration, len(dpus))}
	for i, run := range runs {
		if run.err != nil {
			return LaunchResult{}, fmt.Errorf("dpu %d: %w", dpus[i], run.err)
		}
		res.PerDPU[i] = run.dur
		res.Instructions += run.instr
		res.Duration = max(res.Duration, run.dur)
	}
	r.ci.ops.Add(1) // boot CI operation
	return res, nil
}

// programs checks a launch's DPU list and returns each DPU's kernel.
func (r *Rank) programs(dpus []int) ([]*Kernel, error) {
	kernels := make([]*Kernel, len(dpus))
	listed := make([]bool, r.cfg.DPUs)
	for i, d := range dpus {
		if d < 0 || d >= r.cfg.DPUs {
			return nil, fmt.Errorf("%w: %d", ErrBadDPU, d)
		}
		if listed[d] {
			return nil, fmt.Errorf("%w: %d listed twice", ErrBadDPU, d)
		}
		listed[d] = true
		if kernels[i] = r.Program(d); kernels[i] == nil {
			return nil, fmt.Errorf("%w: dpu %d", ErrNoProgram, d)
		}
	}
	return kernels, nil
}

// dpuRun is the outcome of one DPU's run.
type dpuRun struct {
	dur   time.Duration
	instr int64
	err   error
}

// worker runs DPUs one at a time on one set of tasklet goroutines, grown to
// the largest tasklet count it has run.
type worker struct {
	wg       *sync.WaitGroup
	tasklets []*Ctx
	done     chan struct{}
}

// run executes kernel on DPU d and converts the accounted work into
// virtual time.
func (w *worker) run(r *Rank, d int, kernel *Kernel) dpuRun {
	for len(w.tasklets) < kernel.Tasklets {
		w.spawn()
	}
	st := &runState{rank: r, dpu: d, kernel: kernel, tasklets: w.tasklets[:kernel.Tasklets], done: w.done}
	for _, c := range st.tasklets {
		c.st, c.state = st, notStarted
	}
	st.tasklets[0].wake <- true
	<-w.done
	if err := errors.Join(append(st.errs, st.fault)...); err != nil {
		return dpuRun{err: err}
	}

	cycles := st.instr
	if kernel.Tasklets < PipelineDepth {
		// With fewer than 11 resident tasklets the pipeline cannot issue
		// back-to-back: throughput degrades to tasklets/11 of peak.
		cycles = st.instr * PipelineDepth / int64(kernel.Tasklets)
	}
	return dpuRun{dur: r.model.Cycles(cycles) + time.Duration(st.dmaNanos), instr: st.instr}
}

// spawn starts the worker's next tasklet goroutine. It waits idle until a
// DPU's turn order reaches it, runs the kernel to its return, and waits
// again, until close.
func (w *worker) spawn() {
	c := &Ctx{id: len(w.tasklets), wake: make(chan bool, 1)}
	w.tasklets = append(w.tasklets, c)
	w.wg.Add(1)
	go func() {
		defer w.wg.Done()
		for <-c.wake {
			c.state = started
			err := c.run()
			c.state = finished
			c.st.returned++
			if err != nil {
				c.st.errs = append(c.st.errs, err)
			}
			c.st.pass(c.id)
		}
	}()
}

// close stops the worker's tasklet goroutines; they are all idle.
func (w *worker) close() {
	for _, c := range w.tasklets {
		close(c.wake)
	}
}

// unwind is the panic value that takes a tasklet out of Barrier or Lock
// when its DPU can no longer finish.
type unwind struct{}

// run runs the kernel on this tasklet. A tasklet unwound from Barrier or
// Lock returns nil: its DPU's fault carries the error. A kernel that panics
// faults its DPU with ErrDPUFault wrapping the panic value, as a bad access
// on UPMEM faults the DPU and not the host; pass then unwinds the DPU's
// other started tasklets.
func (c *Ctx) run() error {
	defer func() {
		v := recover()
		if _, ok := v.(unwind); v == nil || ok || c.st.fault != nil {
			return
		}
		cause, ok := v.(error)
		if !ok {
			cause = fmt.Errorf("%v", v)
		}
		c.st.fault = fmt.Errorf("%w: tasklet %d panicked: %w", ErrDPUFault, c.id, cause)
	}()
	return c.st.kernel.Run(c)
}

// pass ends the turn of tasklet from, which has reached a barrier or
// returned, and wakes whoever goes next: the next tasklet in id order that
// has not returned; after the last one, tasklet 0 if the barrier is
// complete, else the worker. Once a tasklet has returned while another
// waits at a barrier, the barrier can never complete: the DPU faults and
// its started tasklets are unwound one at a time before the worker wakes.
func (st *runState) pass(from int) {
	if st.fault == nil && st.arrived > 0 && st.returned > 0 {
		st.fault = fmt.Errorf("%w: %d tasklets wait at a barrier after %d returned", ErrDeadlock, st.arrived, st.returned)
	}
	if st.fault != nil {
		for _, c := range st.tasklets {
			if c.state == started {
				c.wake <- false
				return
			}
		}
		st.done <- struct{}{}
		return
	}
	for _, c := range st.tasklets[from+1:] {
		if c.state != finished {
			c.wake <- true
			return
		}
	}
	if st.arrived == len(st.tasklets) {
		st.arrived = 0
		st.tasklets[0].wake <- true
		return
	}
	st.done <- struct{}{}
}
