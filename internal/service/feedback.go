package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"repro/internal/trainer"
)

// FeedbackEntry is one delayed-label outcome in the /v1/feedback body:
// an item the platform previously scored, now resolved to ground truth
// by manual review or a confirmed fraud case.
type FeedbackEntry = trainer.Feedback

// FeedbackRequest is the /v1/feedback request body.
type FeedbackRequest struct {
	Feedback []FeedbackEntry `json:"feedback"`
}

// FeedbackResponse is the /v1/feedback response body.
type FeedbackResponse struct {
	Accepted int    `json:"accepted"`
	Tenant   string `json:"tenant,omitempty"`
}

// handleFeedback appends labeled outcomes to the request tenant's
// retrain window. The trainer normalizes labels from the fraud bit, so
// a request body cannot poison the window with contradictory labels;
// arbitrary bytes never produce a 5xx (FuzzDecodeFeedback pins this).
// The window copies what it keeps, so the entries die with the request.
func (s *Server) handleFeedback(w http.ResponseWriter, r *http.Request) {
	tr := s.opts.Trainer
	if tr == nil {
		writeError(w, http.StatusNotImplemented, "feedback disabled: no trainer configured")
		return
	}
	var req FeedbackRequest
	if err := s.decodeItems(w, r, &req); err != nil {
		writeError(w, decodeStatus(err), fmt.Sprintf("decode request: %v", err))
		return
	}
	if len(req.Feedback) == 0 {
		writeError(w, http.StatusBadRequest, "no feedback entries")
		return
	}
	if len(req.Feedback) > s.opts.MaxItems {
		writeError(w, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("%d entries exceeds the %d-item limit", len(req.Feedback), s.opts.MaxItems))
		return
	}
	tenant := s.tenantName(r)
	n, err := tr.Feed(tenant, req.Feedback)
	if err != nil {
		code := http.StatusBadRequest // trainer.ErrInvalidFeedback
		switch {
		case errors.Is(err, trainer.ErrUnknownTenant):
			code = http.StatusNotFound
		case errors.Is(err, trainer.ErrClosed):
			code = http.StatusServiceUnavailable
		}
		writeError(w, code, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, FeedbackResponse{Accepted: n, Tenant: tenant})
}

// TrainerStatusResponse is the /admin/trainer response body.
type TrainerStatusResponse struct {
	Enabled bool                   `json:"enabled"`
	Tenants []trainer.TenantStatus `json:"tenants,omitempty"`
}

// handleAdminTrainer reports the champion/challenger loop's per-tenant
// state: window sizes, cycle counts by outcome, and recent decisions.
func (s *Server) handleAdminTrainer(w http.ResponseWriter, r *http.Request) {
	if !s.authAdmin(w, r) {
		return
	}
	tr := s.opts.Trainer
	if tr == nil {
		writeJSON(w, http.StatusOK, TrainerStatusResponse{Enabled: false})
		return
	}
	writeJSON(w, http.StatusOK, TrainerStatusResponse{Enabled: true, Tenants: tr.Status()})
}

// RetrainRequest is the /admin/retrain request body; an empty tenant
// runs one cycle for every registry tenant.
type RetrainRequest struct {
	Tenant string `json:"tenant,omitempty"`
}

// RetrainResponse is the /admin/retrain response body.
type RetrainResponse struct {
	Decisions []trainer.Decision `json:"decisions"`
}

// handleAdminRetrain triggers a retrain cycle on demand — the manual
// lever for operators who don't want to wait out the interval after
// pushing fresh labels.
func (s *Server) handleAdminRetrain(w http.ResponseWriter, r *http.Request) {
	if !s.authAdmin(w, r) {
		return
	}
	tr := s.opts.Trainer
	if tr == nil {
		writeError(w, http.StatusNotImplemented, "retrain disabled: no trainer configured")
		return
	}
	var req RetrainRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes))
	if err := dec.Decode(&req); err != nil {
		writeError(w, decodeStatus(err), fmt.Sprintf("decode request: %v", err))
		return
	}
	if req.Tenant == "" {
		writeJSON(w, http.StatusOK, RetrainResponse{Decisions: tr.RunAll(r.Context())})
		return
	}
	d, err := tr.RunCycle(r.Context(), req.Tenant)
	if err != nil {
		if errors.Is(err, trainer.ErrUnknownTenant) {
			writeError(w, http.StatusNotFound, err.Error())
			return
		}
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, RetrainResponse{Decisions: []trainer.Decision{d}})
}
