package loadtest

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"sync"
	"testing"
	"time"
)

func TestRunValidation(t *testing.T) {
	ctx := context.Background()
	if _, err := Run(ctx, Config{Handler: http.NewServeMux()}); err == nil {
		t.Error("no targets must be rejected")
	}
	if _, err := Run(ctx, Config{Targets: []Target{{Path: "/"}}}); err == nil {
		t.Error("neither Handler nor Router must be rejected")
	}
	if _, err := Run(ctx, Config{
		Targets: []Target{{Path: "/"}},
		Handler: http.NewServeMux(),
		Router:  func(int, []byte) http.Handler { return http.NewServeMux() },
	}); err == nil {
		t.Error("both Handler and Router must be rejected")
	}
	if _, err := Run(ctx, Config{
		Targets: []Target{{Path: "/", Weight: -1}},
		Handler: http.NewServeMux(),
	}); err == nil {
		t.Error("negative weight must be rejected")
	}
}

func TestRunAgainstHandlerMix(t *testing.T) {
	var fast, slow int64
	var mu sync.Mutex
	mux := http.NewServeMux()
	mux.HandleFunc("/fast", func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		fast++
		mu.Unlock()
		io.WriteString(w, "ok")
	})
	mux.HandleFunc("/slow", func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		slow++
		mu.Unlock()
		io.WriteString(w, "ok")
	})

	rep, err := Run(context.Background(), Config{
		Targets: []Target{
			{Name: "fast", Path: "/fast", Weight: 9},
			{Name: "slow", Path: "/slow", Weight: 1},
		},
		Handler:     mux,
		Concurrency: 4,
		Duration:    150 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests == 0 || rep.RPS <= 0 {
		t.Fatalf("no throughput: %+v", rep.Stats)
	}
	if rep.Status2xx != rep.Requests || rep.Status5xx != 0 {
		t.Errorf("outcomes %+v, want all 2xx", rep.Stats)
	}
	if rep.Requests != uint64(fast+slow) {
		t.Errorf("report counts %d requests, handler saw %d", rep.Requests, fast+slow)
	}
	if len(rep.Targets) != 2 || rep.Targets[0].Requests == 0 || rep.Targets[1].Requests == 0 {
		t.Fatalf("both targets must be exercised: %+v", rep.Targets)
	}
	// 9:1 weights: the fast target must dominate (loose 2:1 bar so
	// scheduling noise cannot flake the test).
	if rep.Targets[0].Requests < 2*rep.Targets[1].Requests {
		t.Errorf("mix ignored weights: fast %d vs slow %d", rep.Targets[0].Requests, rep.Targets[1].Requests)
	}
	if rep.P50 <= 0 || rep.P99 < rep.P50 || rep.Max < rep.P99 {
		t.Errorf("quantiles not ordered: p50 %v p99 %v max %v", rep.P50, rep.P99, rep.Max)
	}
}

func TestRunCounts5xx(t *testing.T) {
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/boom" {
			http.Error(w, "no", http.StatusInternalServerError)
			return
		}
		io.WriteString(w, "ok")
	})

	rep, err := Run(context.Background(), Config{
		Targets: []Target{
			{Name: "ok", Path: "/ok"},
			{Name: "boom", Path: "/boom"},
		},
		Handler:     h,
		Concurrency: 2,
		Duration:    100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests == 0 {
		t.Fatal("no requests completed")
	}
	if rep.Status5xx == 0 {
		t.Error("5xx responses must be counted")
	}
	if rep.Status5xx+rep.Status2xx != rep.Requests {
		t.Errorf("outcome classes must partition requests: %+v", rep.Stats)
	}
}

func TestRunBodyFuncSequencesUnique(t *testing.T) {
	var mu sync.Mutex
	seen := map[string]bool{}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1", func(w http.ResponseWriter, r *http.Request) {
		b, _ := io.ReadAll(r.Body)
		mu.Lock()
		seen[string(b)] = true
		mu.Unlock()
		io.WriteString(w, "ok")
	})

	rep, err := Run(context.Background(), Config{
		Targets: []Target{{
			Name: "uniq",
			Path: "/v1",
			BodyFunc: func(seq uint64) []byte {
				return []byte(fmt.Sprintf(`{"seq":%d}`, seq))
			},
		}},
		Handler:     mux,
		Concurrency: 4,
		Duration:    100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	distinct := len(seen)
	mu.Unlock()
	if uint64(distinct) != rep.Requests {
		t.Errorf("saw %d distinct bodies for %d requests, want every body unique", distinct, rep.Requests)
	}
}

func TestRunWarmupPrimesStaticTargets(t *testing.T) {
	var mu sync.Mutex
	hits := 0
	mux := http.NewServeMux()
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		hits++
		mu.Unlock()
		io.WriteString(w, "ok")
	})
	rep, err := Run(context.Background(), Config{
		Targets:     []Target{{Name: "t", Path: "/", Body: []byte(`{}`)}},
		Handler:     mux,
		Concurrency: 1,
		Duration:    50 * time.Millisecond,
		Warmup:      true,
	})
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	total := hits
	mu.Unlock()
	// The warmup request reaches the handler but is not in the report.
	if uint64(total) != rep.Requests+1 {
		t.Errorf("handler saw %d hits, report has %d requests; warmup must add exactly one", total, rep.Requests)
	}
}

func TestRunCancelledContextStopsEarly(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	mux := http.NewServeMux()
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) { io.WriteString(w, "ok") })
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, err := Run(ctx, Config{
			Targets:     []Target{{Path: "/"}},
			Handler:     mux,
			Concurrency: 2,
			Duration:    time.Hour,
		})
		if err != nil {
			t.Error(err)
		}
	}()
	time.Sleep(50 * time.Millisecond)
	cancel()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("run did not stop after context cancellation")
	}
}
