package server

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/url"
	"strconv"

	"ttmcas/internal/cluster"
	"ttmcas/internal/jobs"
)

// The batch-job routes: long-running evaluations (Monte-Carlo band
// curves, Sobol sensitivity, sweeps, Pareto fronts, plan portfolios)
// that do not fit the synchronous request/response deadline. Clients
// submit a typed spec, poll progress, and fetch the result when done.
//
//	POST   /v1/jobs             submit a spec           → 202 + job view
//	GET    /v1/jobs             list jobs, newest first → 200
//	GET    /v1/jobs/{id}        job status + progress   → 200
//	GET    /v1/jobs/{id}/result finished job's result   → 200 / 409
//	DELETE /v1/jobs/{id}        cancel (and forget)     → 200

// jobError maps the manager's sentinels onto HTTP statuses.
func jobError(err error) error {
	switch {
	case errors.Is(err, jobs.ErrInvalidSpec):
		return &apiError{status: http.StatusUnprocessableEntity, msg: err.Error()}
	case errors.Is(err, jobs.ErrTooManyJobs):
		// Job capacity frees on the scale of job runtimes, not request
		// latencies; tell clients to back off accordingly.
		return &apiError{status: http.StatusTooManyRequests, msg: err.Error(), retryAfter: 5}
	case errors.Is(err, jobs.ErrNotFound):
		return &apiError{status: http.StatusNotFound, msg: err.Error()}
	case errors.Is(err, jobs.ErrNotFinished):
		return &apiError{status: http.StatusConflict, msg: err.Error()}
	case errors.Is(err, jobs.ErrClosed):
		return &apiError{status: http.StatusServiceUnavailable, msg: err.Error()}
	default:
		return err
	}
}

func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	var spec jobs.Spec
	if err := decodeBody(r, &spec); err != nil {
		s.fail(w, err)
		return
	}
	// Cluster routing: a job runs on the node owning its canonical spec
	// key, so identical submissions land (and snapshot) on one node and
	// snapshot files never collide across the fleet. A forward that
	// fails at the transport level runs the job locally — placement is
	// an optimization, acceptance is availability.
	if s.cluster != nil && r.Header.Get(cluster.ForwardHeader) == "" {
		key, err := CacheKey("POST /v1/jobs", spec)
		if err == nil {
			if owner, self := s.cluster.Owner(key); !self {
				if s.forwardJob(w, r, owner, key) {
					return
				}
			} else {
				s.cluster.NoteLocal()
			}
		}
	}
	v, err := s.jobs.Submit(spec)
	if err != nil {
		s.fail(w, jobError(err))
		return
	}
	writeJSON(w, http.StatusAccepted, v)
}

// forwardJob relays a job submission to the owning peer; false means
// the forward failed in transport and the caller should submit
// locally.
func (s *Server) forwardJob(w http.ResponseWriter, r *http.Request, ownerURL, key string) bool {
	body := key[len("POST /v1/jobs|"):]
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()
	// Job submission is not idempotent (each accept mints an ID), so it
	// never retries: a transport failure falls back to running locally.
	res, err := s.cluster.ForwardOpts(ctx, ownerURL, http.MethodPost, "/v1/jobs", []byte(body),
		cluster.ForwardOptions{})
	if err != nil {
		s.log.Printf("cluster: job submit forward to %s failed, running locally: %v", ownerURL, err)
		return false
	}
	relayForwarded(w, res)
	return true
}

// scatterJob queries the peers for a job ID this node does not hold —
// job IDs are minted by the owning node, so a client polling through a
// different node needs the lookup fanned out. Peers are tried
// healthiest-first; the first non-404 answer wins. Returns false when
// no peer knows the job (or clustering is off), leaving the local 404.
// path is sent verbatim, so callers must escape the job ID in it.
func (s *Server) scatterJob(w http.ResponseWriter, r *http.Request, path string) bool {
	if s.cluster == nil || r.Header.Get(cluster.ForwardHeader) != "" {
		return false
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()
	for _, u := range s.cluster.PeerURLs(true) {
		// The healthiest-first peer loop is itself the retry here.
		res, err := s.cluster.ForwardOpts(ctx, u, r.Method, path, nil,
			cluster.ForwardOptions{})
		if err != nil || res.Status == http.StatusNotFound {
			continue
		}
		relayForwarded(w, res)
		return true
	}
	return false
}

// relayForwarded writes a peer's response through verbatim.
func relayForwarded(w http.ResponseWriter, res cluster.ForwardResult) {
	h := w.Header()
	h["Content-Type"] = headerJSON
	h["Content-Length"] = []string{strconv.Itoa(len(res.Body))}
	if res.RetryAfter != "" {
		h["Retry-After"] = []string{res.RetryAfter}
	}
	w.WriteHeader(res.Status)
	w.Write(res.Body)
}

func (s *Server) handleJobList(w http.ResponseWriter, r *http.Request) {
	views := s.jobs.List()
	if views == nil {
		views = []jobs.View{}
	}
	writeJSON(w, http.StatusOK, views)
}

func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	v, ok := s.jobs.Get(id)
	if !ok {
		if s.scatterJob(w, r, "/v1/jobs/"+url.PathEscape(id)) {
			return
		}
		s.fail(w, jobError(jobs.ErrNotFound))
		return
	}
	writeJSON(w, http.StatusOK, v)
}

// JobResultResponse wraps a finished job's result document with its
// identity and terminal status. Result is null for failed and
// cancelled jobs; Error says why.
type JobResultResponse struct {
	ID     string          `json:"id"`
	Kind   string          `json:"kind"`
	Status jobs.Status     `json:"status"`
	Error  string          `json:"error,omitempty"`
	Result json.RawMessage `json:"result,omitempty"`
}

func (s *Server) handleJobResult(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	raw, v, err := s.jobs.Result(id)
	if err != nil {
		if errors.Is(err, jobs.ErrNotFound) && s.scatterJob(w, r, "/v1/jobs/"+url.PathEscape(id)+"/result") {
			return
		}
		s.fail(w, jobError(err))
		return
	}
	writeJSON(w, http.StatusOK, JobResultResponse{
		ID: v.ID, Kind: v.Kind, Status: v.Status, Error: v.Error, Result: raw,
	})
}

func (s *Server) handleJobDelete(w http.ResponseWriter, r *http.Request) {
	// Cancel running jobs but keep them listed so clients can observe
	// the cancellation; remove finished jobs outright.
	id := r.PathValue("id")
	v, ok := s.jobs.Get(id)
	if !ok {
		if s.scatterJob(w, r, "/v1/jobs/"+url.PathEscape(id)) {
			return
		}
		s.fail(w, jobError(jobs.ErrNotFound))
		return
	}
	var err error
	if v.Status.Finished() {
		v, err = s.jobs.Remove(id)
	} else {
		v, err = s.jobs.Cancel(id)
	}
	if err != nil {
		s.fail(w, jobError(err))
		return
	}
	writeJSON(w, http.StatusOK, v)
}
