package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"

	"ttmcas/internal/cluster"
	"ttmcas/internal/jobs"
)

// Distributed job execution: when this node owns a heavy job and the
// ring has alive peers, the job manager shards the spec and scatters
// the shards here. POST /v1/internal/shards is internal — it rides the
// cluster transport with the X-Ttmcas-Forward single-hop guard and the
// same auth-free loopback trust model as job forwarding; it is not
// part of the public API surface.

// clusterDistributor implements jobs.Distributor over the cluster's
// forward transport. Targets are the alive-or-suspect peers,
// healthiest first, re-read per job so dispatch tracks membership.
type clusterDistributor struct{ s *Server }

func (d clusterDistributor) Targets() []string {
	return d.s.cluster.PeerURLs(true)
}

func (d clusterDistributor) Dispatch(ctx context.Context, target string, req jobs.ShardRequest) (jobs.ShardResult, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return jobs.ShardResult{}, err
	}
	// No transport-level retry: the jobs layer owns shard hedging
	// (next-alive peer, then local fallback), and stacking budgets
	// under it would double-spend the shard deadline.
	fr, err := d.s.cluster.ForwardOpts(ctx, target, http.MethodPost, "/v1/internal/shards", body,
		cluster.ForwardOptions{})
	if err != nil {
		return jobs.ShardResult{}, err
	}
	if fr.Status != http.StatusOK {
		// A peer that rejects the shard (mismatched limits, restarting,
		// shedding) is as good as unreachable for this dispatch: let
		// the coordinator hedge and ultimately fall back to local
		// compute. Deterministic compute errors come back as 200s with
		// ShardResult.Err set and are never retried.
		return jobs.ShardResult{}, fmt.Errorf("server: shard on %s: status %d", target, fr.Status)
	}
	var res jobs.ShardResult
	if err := json.Unmarshal(fr.Body, &res); err != nil {
		return jobs.ShardResult{}, fmt.Errorf("server: shard response from %s: %w", target, err)
	}
	return res, nil
}

// handleShardExec executes one shard on behalf of a coordinating peer.
func (s *Server) handleShardExec(w http.ResponseWriter, r *http.Request) {
	var req jobs.ShardRequest
	if err := decodeBody(r, &req); err != nil {
		s.fail(w, err)
		return
	}
	res, err := jobs.RunShard(r.Context(), s.jobs.SpecLimits(), req, nil)
	if err != nil {
		s.fail(w, jobError(err))
		return
	}
	// Shard responses are large (a sensitivity shard is 8 bytes per
	// output before base64), so they carry Content-Length: the
	// coordinator's forward reads into one buffer of exactly that size.
	body, release, err := encodeJSON(res)
	if err != nil {
		ae := encodeResponseError(err)
		writeError(w, ae.status, ae.msg)
		return
	}
	writeBody(w, http.StatusOK, body)
	release()
}
