package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"chameleon/internal/cluster"
	"chameleon/internal/policy"
	"chameleon/internal/workload"
)

// Handler returns the server's HTTP API:
//
//	POST   /v1/jobs          submit a job (JobSpec body) -> JobStatus
//	GET    /v1/jobs          list jobs
//	GET    /v1/jobs/{id}     job status with live progress; ?wait=30s
//	                         holds the read until the job ends
//	GET    /v1/jobs/{id}/result  result JSON of a done job
//	DELETE /v1/jobs/{id}     cancel a queued or running job
//	GET    /v1/workloads     Table II workload catalogue
//	GET    /v1/policies      registered policy designs + descriptor flags
//	GET    /healthz          liveness
//	GET    /debug/vars       expvar metrics
//
// /v1/workloads and /v1/policies together enumerate the valid axis
// values for sim, matrix, and dse specs, so clients can build sweeps
// without guessing names.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/workloads", s.handleWorkloads)
	mux.HandleFunc("GET /v1/policies", s.handlePolicies)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.Handle("GET /debug/vars", s.metrics)
	if s.cl != nil {
		s.registerClusterRoutes(mux)
	}
	return mux
}

// apiError is the JSON error envelope.
type apiError struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v) // the status line is already out; nothing to recover
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, apiError{Error: err.Error()})
}

// maxSubmitBytes bounds a submission body. DSE sweeps carry explicit
// cache-hierarchy and memory-tier variant lists, so the limit is well
// above the 1 MiB that sufficed for sim/matrix specs; an oversized
// body gets an explicit 413, not a bare decode failure.
const maxSubmitBytes = 8 << 20

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSubmitBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("request body exceeds %d bytes; split the sweep or drop redundant variants", tooBig.Limit))
			return
		}
		writeError(w, http.StatusBadRequest, err)
		return
	}
	j, err := s.submit(spec, r.Header.Get(cluster.ForwardedHeader))
	switch {
	case errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, err)
		return
	case errors.Is(err, ErrDraining):
		writeError(w, http.StatusServiceUnavailable, err)
		return
	case err != nil:
		writeError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusAccepted, j.Status())
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Jobs []JobStatus `json:"jobs"`
	}{s.Jobs()})
}

// job resolves the {id} path value, writing a 404 on a miss. The job
// may never have existed, or it ended and the store has dropped it.
func (s *Server) job(w http.ResponseWriter, r *http.Request) (*Job, bool) {
	id := r.PathValue("id")
	j, ok := s.store.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, errors.New("unknown or expired job "+id))
	}
	return j, ok
}

// maxStatusWait caps how long one status read may be held open. It is
// also the store's grace for an ended job (see keepEnded): a job a
// read was held on is still there when the read answers.
const maxStatusWait = time.Minute

// handleStatus answers with the job's status. With ?wait=<Go duration>
// (capped at maxStatusWait) it first blocks until the job ends, the
// wait passes, or the request is canceled. A draining server holds no
// reads: a wait on an unfinished job then answers 503, as a submit does.
func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	var wait time.Duration
	if r.URL.RawQuery != "" {
		v := r.URL.Query().Get("wait")
		d, err := time.ParseDuration(v)
		if v != "" && (err != nil || d < 0) {
			writeError(w, http.StatusBadRequest, fmt.Errorf("wait=%q: want a non-negative Go duration such as 30s", v))
			return
		}
		wait = min(d, maxStatusWait)
	}
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	if wait > 0 {
		t := time.NewTimer(wait)
		defer t.Stop()
		select {
		case <-j.Done():
		case <-t.C:
		case <-r.Context().Done():
		case <-s.draining.Done():
		}
		if s.draining.Err() != nil && !j.State().Terminal() {
			writeError(w, http.StatusServiceUnavailable, ErrDraining)
			return
		}
	}
	writeJSON(w, http.StatusOK, j.Status())
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	res, err := j.resultString()
	if err != nil {
		code := http.StatusConflict // not ready yet
		if st := j.Status().State; st == StateFailed || st == StateCanceled {
			code = http.StatusGone
		}
		writeError(w, code, err)
		return
	}
	writeResult(w, res)
}

// writeResult answers 200 with result bytes as stored. A result
// outgrows net/http's own sizing buffer, which would send it chunked;
// its length is known, so it goes out with a Content-Length.
func writeResult(w http.ResponseWriter, res string) {
	h := w.Header()
	h.Set("Content-Type", "application/json; charset=utf-8")
	h.Set("Content-Length", strconv.Itoa(len(res)))
	w.WriteHeader(http.StatusOK)
	_, _ = io.WriteString(w, res)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	canceled, _ := s.Cancel(j.ID) // j was just found: no lookup error
	writeJSON(w, http.StatusOK, struct {
		ID       string   `json:"id"`
		Canceled bool     `json:"canceled"`
		State    JobState `json:"state"`
	}{j.ID, canceled, j.Status().State})
}

// WorkloadInfo describes one Table II workload on the wire.
type WorkloadInfo struct {
	Name           string  `json:"name"`
	FootprintBytes uint64  `json:"footprint_bytes"`
	TargetLLCMPKI  float64 `json:"target_llc_mpki"`
}

func (s *Server) handleWorkloads(w http.ResponseWriter, _ *http.Request) {
	names := workload.Names()
	infos := make([]WorkloadInfo, 0, len(names))
	for _, n := range names {
		p, err := workload.ByName(n)
		if err != nil {
			continue // listed names always resolve
		}
		infos = append(infos, WorkloadInfo{
			Name:           p.Name,
			FootprintBytes: p.FootprintBytes,
			TargetLLCMPKI:  p.TargetLLCMPKI,
		})
	}
	writeJSON(w, http.StatusOK, struct {
		Workloads []WorkloadInfo `json:"workloads"`
	}{infos})
}

// PolicyInfo describes one registered policy design on the wire:
// its name plus the descriptor flags a client needs to build valid
// specs (minimum memory-tier depth, ISA support, baseline capacity).
type PolicyInfo struct {
	Name             string `json:"name"`
	RequiredTiers    int    `json:"required_tiers"`
	NeedsISA         bool   `json:"needs_isa,omitempty"`
	RequiresBaseline bool   `json:"requires_baseline,omitempty"`
	OSManaged        bool   `json:"os_managed,omitempty"`
}

func (s *Server) handlePolicies(w http.ResponseWriter, _ *http.Request) {
	names := policy.Names()
	infos := make([]PolicyInfo, 0, len(names))
	for _, n := range names {
		desc, err := policy.Lookup(n)
		if err != nil {
			continue // listed names always resolve
		}
		infos = append(infos, PolicyInfo{
			Name:             n,
			RequiredTiers:    desc.RequiredTiers(),
			NeedsISA:         desc.NeedsISA,
			RequiresBaseline: desc.RequiresBaseline,
			OSManaged:        desc.OSManaged,
		})
	}
	writeJSON(w, http.StatusOK, struct {
		Policies []PolicyInfo `json:"policies"`
	}{infos})
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	status := "ok"
	code := http.StatusOK
	if s.draining.Err() != nil {
		status = "draining"
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, struct {
		Status string `json:"status"`
	}{status})
}
