package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"

	"ttmcas"
	"ttmcas/internal/report"
	"ttmcas/internal/timeline"
)

// cmdTimeline evaluates a composed disruption timeline: a spec file or
// a named historical episode, run for a design along its whole window.
// Human output is a summary plus the per-step curve; -json emits the
// full result document (the same shape POST /v1/scenarios returns).
func cmdTimeline(args []string) error {
	fs := flag.NewFlagSet("timeline", flag.ContinueOnError)
	specPath := fs.String("spec", "", `timeline spec file (JSON; "-" reads stdin)`)
	episode := fs.String("episode", "", "built-in historical episode (see -list)")
	list := fs.Bool("list", false, "list the built-in episodes and exit")
	designName := fs.String("design", "a11", "design: a11, zen2, ariane16, raven, chipA, chipB")
	node := fs.String("node", "", "re-target the design to this node (e.g. 28nm)")
	n := fs.Float64("n", 10e6, "number of final chips")
	inFlight := fs.Bool("inflight", false, "also simulate an order placed at week 0 through the disruption")
	jsonOut := fs.Bool("json", false, "emit the full result as JSON")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list {
		t := report.NewTable("historical episodes", "name", "base", "horizon (wk)", "description")
		for _, ep := range ttmcas.TimelineEpisodes() {
			t.AddRow(ep.Name, ep.Spec.Base, report.Fmt1(ep.Spec.HorizonWeeks), ep.Description)
		}
		fmt.Print(t.String())
		return nil
	}

	var inline *ttmcas.TimelineSpec
	if *specPath != "" {
		var data []byte
		var err error
		if *specPath == "-" {
			data, err = io.ReadAll(os.Stdin)
		} else {
			data, err = os.ReadFile(*specPath)
		}
		if err != nil {
			return err
		}
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		inline = new(ttmcas.TimelineSpec)
		if err := dec.Decode(inline); err != nil {
			return fmt.Errorf("decoding spec: %w", err)
		}
	}
	spec, err := timeline.Resolve(inline, *episode)
	if err != nil {
		return fmt.Errorf("%w (-spec FILE or -episode NAME; see -list)", err)
	}
	d, err := ttmcas.DesignAt(*designName, *node)
	if err != nil {
		return err
	}

	tl, err := ttmcas.CompileTimeline(spec, ttmcas.TimelineLimits{})
	if err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	res, err := ttmcas.EvaluateTimeline(ctx, d, *n, tl, ttmcas.TimelineOptions{InFlight: *inFlight})
	if err != nil {
		return err
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(res)
	}

	name := res.Name
	if name == "" {
		name = "timeline"
	}
	fmt.Printf("%s: %s, %s chips over %s weeks (base %s, step %s)\n\n",
		name, d.Name, report.FmtSI(*n), report.Fmt1(res.HorizonWeeks), res.Base, report.Fmt1(res.StepWeeks))

	sum := res.Summary
	fmtTTM := func(w *float64) string {
		if w == nil {
			return "stalled"
		}
		return report.Fmt1(*w)
	}
	st := report.NewTable("summary", "metric", "value")
	st.AddRow("baseline TTM (wk)", fmtTTM(sum.BaselineTTMWeeks))
	st.AddRow("peak TTM (wk)", fmtTTM(sum.PeakTTMWeeks)+" @ week "+report.Fmt1(sum.PeakWeek))
	st.AddRow("baseline CAS", fmt.Sprintf("%.0f", sum.BaselineCAS))
	st.AddRow("min CAS", fmt.Sprintf("%.0f @ week %s", sum.MinCAS, report.Fmt1(sum.MinCASWeek)))
	st.AddRow("peak CAS degradation", fmt.Sprintf("%.0f", sum.CASDegradation))
	if sum.TimeToRecoverWeeks != nil {
		st.AddRow("time to recover (wk)", report.Fmt1(*sum.TimeToRecoverWeeks))
	} else {
		st.AddRow("time to recover (wk)", "never (inside the window)")
	}
	st.AddRow("AUC schedule loss (wk²)", report.Fmt1(sum.AUCLossWeeks2))
	if sum.StalledSteps > 0 {
		st.AddRow("stalled steps", fmt.Sprintf("%d", sum.StalledSteps))
	}
	st.AddRow("chip-creation cost", fmtUSD(ttmcas.USD(res.CostUSD)))
	fmt.Print(st.String())

	if inf := res.InFlight; inf != nil {
		it := report.NewTable("\nin-flight order study (placed at week 0)", "metric", "value")
		it.AddRow("promised TTM (wk)", fmtTTM(inf.PromisedTTMWeeks))
		it.AddRow("simulated TTM (wk)", fmtTTM(inf.SimulatedTTMWeeks))
		it.AddRow("slip (wk)", report.Fmt1(inf.SlipWeeks))
		fmt.Print(it.String())
	}

	ct := report.NewTable("\ntimeline", "week", "TTM (wk)", "CAS (w/wk²)", "conditions")
	for _, step := range res.Steps {
		ct.AddRow(report.Fmt1(step.Week), fmtTTM(step.TTMWeeks), fmt.Sprintf("%.0f", step.CAS), step.Conditions)
	}
	fmt.Print(ct.String())
	return nil
}
