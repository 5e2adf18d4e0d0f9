// Shortage planning: an automotive-class product team needs to ship
// chips through a 2021-style shortage. This example walks the analysis
// the paper enables: (1) which node gets the re-released design to
// market fastest, (2) how queues and capacity loss punish that choice,
// (3) how an in-flight order rides through a disruption, via the
// discrete-event fab simulator.
package main

import (
	"context"
	"fmt"
	"log"
	"sort"

	"ttmcas"
)

func main() {
	const chips = 10e6
	design := ttmcas.A11()

	// (1) Node selection under the baseline market.
	type row struct {
		node ttmcas.Node
		ttm  ttmcas.Weeks
		cas  float64
	}
	var rows []row
	for _, node := range ttmcas.ProducingNodes() {
		d := design.Retarget(node)
		ttm, err := ttmcas.TTM(d, chips, ttmcas.FullCapacity())
		if err != nil {
			log.Fatal(err)
		}
		cas, err := ttmcas.CAS(d, chips, ttmcas.FullCapacity())
		if err != nil {
			log.Fatal(err)
		}
		rows = append(rows, row{node, ttm, cas.CAS})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].ttm < rows[j].ttm })
	fmt.Printf("re-releasing %s for %.0fM chips — node ranking by TTM:\n", design.Name, chips/1e6)
	for i, r := range rows {
		marker := ""
		if i == 0 {
			marker = "  <- fastest to market"
		}
		fmt.Printf("  %-6s TTM %6.1f wk   CAS %9.0f%s\n", r.node, float64(r.ttm), r.cas, marker)
	}
	fastest := rows[0].node

	// (2) Stress the chosen node with the built-in scenarios.
	fmt.Printf("\nstress-testing the %s choice:\n", fastest)
	d := design.Retarget(fastest)
	for _, s := range ttmcas.Scenarios() {
		ttm, err := ttmcas.TTM(d, chips, s.Conditions)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-16s TTM %6.1f wk   (%s)\n", s.Name, float64(ttm), s.Description)
	}

	// The Monte-Carlo view: how trustworthy is the point estimate
	// given ±10% uncertainty in the six guarded inputs?
	est, err := ttmcas.TTMWithUncertainty(context.Background(), d, chips, ttmcas.FullCapacity(), ttmcas.MCConfig{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nwith ±10%% input uncertainty: TTM = %.1f wk, 95%% CI [%.1f, %.1f] (%d samples)\n",
		est.Mean, est.CI.Lo, est.CI.Hi, est.Samples)

	// (3) An order already in the fab when disaster strikes: week 1, a
	// storm takes the line to 25%; week 6 it recovers.
	line, err := ttmcas.FabLineFor(fastest)
	if err != nil {
		log.Fatal(err)
	}
	r, err := ttmcas.Evaluate(d, chips, ttmcas.FullCapacity())
	if err != nil {
		log.Fatal(err)
	}
	wafers := float64(r.Nodes[0].Wafers)
	clean, err := ttmcas.SimulateFab(line, wafers, 0, nil)
	if err != nil {
		log.Fatal(err)
	}
	storm, err := ttmcas.SimulateFab(line, wafers, 0, []ttmcas.FabDisruption{
		{AtWeek: 1, Fraction: 0.25},
		{AtWeek: 6, Fraction: 1.0},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ndiscrete-event fab run of the %.0f-wafer order at %s:\n", wafers, fastest)
	fmt.Printf("  undisrupted: last wafer packaged at week %.1f\n", float64(clean.LastPackaged))
	fmt.Printf("  storm wk1-6 (25%% capacity): last wafer packaged at week %.1f (+%.1f weeks)\n",
		float64(storm.LastPackaged), float64(storm.LastPackaged-clean.LastPackaged))
}
