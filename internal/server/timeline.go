package server

import (
	"context"
	"errors"
	"net/http"

	"ttmcas"
	"ttmcas/internal/timeline"
)

// The timeline routes: the scenario composer over HTTP.
//
//	POST /v1/scenarios  evaluate a composed timeline inline → 200
//	GET  /v1/episodes   list the historical-episode library → 200
//
// Inline evaluation is bounded by MaxTimelineSteps; longer timelines
// belong on the batch-job route (POST /v1/jobs, kind "timeline"),
// which chunks the steps, reports progress, and routes across the
// cluster like any other job.

// TimelineRequest is the body of POST /v1/scenarios: a design, a chip
// count, and either an inline timeline spec or a named episode from
// the library.
type TimelineRequest struct {
	// Design names a built-in design; mutually exclusive with Spec.
	Design string `json:"design,omitempty"`
	// Spec is an inline design description.
	Spec *DesignSpec `json:"spec,omitempty"`
	// Node, when set, re-targets the design to this process node.
	Node string `json:"node,omitempty"`
	// N is the number of final chips.
	N float64 `json:"n"`
	// Timeline is an inline timeline spec; mutually exclusive with
	// Episode.
	Timeline *ttmcas.TimelineSpec `json:"timeline,omitempty"`
	// Episode names a built-in historical episode (see /v1/episodes).
	Episode string `json:"episode,omitempty"`
	// InFlight also runs the discrete-event in-flight study: an order
	// placed at week 0, simulated through the composed capacity curve.
	InFlight bool `json:"in_flight,omitempty"`
}

func (s *Server) evalTimeline(ctx context.Context, req *TimelineRequest) (any, error) {
	d, err := resolveDesign(req.Design, req.Spec, req.Node)
	if err != nil {
		return nil, err
	}
	if req.N <= 0 {
		return nil, badRequestf(`"n" (number of chips) must be positive`)
	}
	spec, err := timeline.Resolve(req.Timeline, req.Episode)
	if err != nil {
		return nil, badRequestf("%v", err)
	}
	tl, err := ttmcas.CompileTimeline(spec, ttmcas.TimelineLimits{
		MaxSteps:    s.cfg.MaxTimelineSteps,
		MaxSegments: s.cfg.MaxCurvePoints,
	})
	if err != nil {
		if errors.Is(err, ttmcas.ErrInvalidTimelineSpec) {
			msg := err.Error()
			if spec.StepCount() > s.cfg.MaxTimelineSteps {
				msg += `; longer timelines run as batch jobs (POST /v1/jobs, kind "timeline")`
			}
			return nil, unprocessablef("%s", msg)
		}
		return nil, err
	}
	res, err := ttmcas.EvaluateTimeline(ctx, d, req.N, tl, ttmcas.TimelineOptions{InFlight: req.InFlight})
	if err != nil {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		return nil, unprocessablef("%v", err)
	}
	return res, nil
}

func (s *Server) handleEpisodes(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, ttmcas.TimelineEpisodes())
}
