package accel

import (
	"fmt"
	"sort"
)

// Cycle-stepped execution of the streaming-reuse machine. The
// Accelerator type prices designs with a closed-form cycle count
// (passes × (n·stall/w + fill)); this simulator executes the same
// machine beat by beat — data streams through f hardware stages at w
// elements per cycle, loops back ⌈S/f⌉ times, pays the fill latency on
// every pass — so the closed form is validated operationally, the same
// way fabsim validates the fabrication equations. For sorting designs
// it also applies the real bitonic compare-exchanges, so the simulated
// machine must actually sort.

// Validate checks the structural parameters.
func (a Accelerator) Validate() error {
	if a.TotalStages <= 0 || a.HWStages <= 0 || a.Width <= 0 {
		return fmt.Errorf("accel: %s: stages/width must be positive", a.Name)
	}
	if a.HWStages > a.TotalStages {
		return fmt.Errorf("accel: %s: hardware stages exceed network depth", a.Name)
	}
	return nil
}

// Trace records one pass of a machine execution.
type Trace struct {
	Pass   int
	Stages []int // network stage indices applied this pass
	Cycles float64
}

// MachineRun is the outcome of a cycle-stepped execution.
type MachineRun struct {
	// Cycles is the simulated total.
	Cycles float64
	// Passes is the number of trips through the hardware.
	Passes int
	// Traces details each pass.
	Traces []Trace
}

// StepSort executes the accelerator on real data: the dataset streams
// through the machine pass by pass, each pass applying the pass's
// bitonic stages and costing n·stall/w + fill cycles. The data must be
// a power-of-two length matching the network the accelerator was built
// for; it is sorted in place.
func (a Accelerator) StepSort(data []int32) (MachineRun, error) {
	if err := a.Validate(); err != nil {
		return MachineRun{}, err
	}
	n := len(data)
	if BitonicStages(n) != a.TotalStages {
		return MachineRun{}, fmt.Errorf("accel: %s is built for a %d-stage network, data needs %d",
			a.Name, a.TotalStages, BitonicStages(n))
	}
	stall := a.StallFactor
	if stall == 0 {
		stall = 1
	}

	// Enumerate the bitonic schedule as (k, j) stage pairs in order.
	type stage struct{ k, j int }
	var schedule []stage
	for k := 2; k <= n; k <<= 1 {
		for j := k >> 1; j > 0; j >>= 1 {
			schedule = append(schedule, stage{k, j})
		}
	}

	var run MachineRun
	for start := 0; start < len(schedule); start += a.HWStages {
		end := start + a.HWStages
		if end > len(schedule) {
			end = len(schedule)
		}
		tr := Trace{Pass: run.Passes + 1}
		for si := start; si < end; si++ {
			st := schedule[si]
			for i := 0; i < n; i++ {
				l := i ^ st.j
				if l <= i {
					continue
				}
				ascending := i&st.k == 0
				if (data[i] > data[l]) == ascending {
					data[i], data[l] = data[l], data[i]
				}
			}
			tr.Stages = append(tr.Stages, si)
		}
		// One pass streams the dataset once through the instantiated
		// stages: n·stall/w beats plus the pipeline fill.
		tr.Cycles = float64(n)*stall/float64(a.Width) + float64(a.FillLatency)
		run.Cycles += tr.Cycles
		run.Passes++
		run.Traces = append(run.Traces, tr)
	}
	return run, nil
}

// StepCount runs the machine's timing only (no data), for FFT-class
// designs whose dataflow is validated separately by the functional FFT.
func (a Accelerator) StepCount(n int) (MachineRun, error) {
	if err := a.Validate(); err != nil {
		return MachineRun{}, err
	}
	stall := a.StallFactor
	if stall == 0 {
		stall = 1
	}
	var run MachineRun
	for done := 0; done < a.TotalStages; done += a.HWStages {
		cycles := float64(n)*stall/float64(a.Width) + float64(a.FillLatency)
		run.Cycles += cycles
		run.Passes++
		run.Traces = append(run.Traces, Trace{Pass: run.Passes, Cycles: cycles})
	}
	return run, nil
}

// VerifySorted reports whether data is ascending.
func VerifySorted(data []int32) bool {
	return sort.SliceIsSorted(data, func(i, j int) bool { return data[i] < data[j] })
}
