package ftsim

import (
	"repro/internal/campaign"
	"repro/internal/obs"
)

// Metrics instrumentation, re-exported from the engine (the same
// aliasing pattern as CampaignReport): embedders tap the identical
// metric stream the ftsimd daemon exposes on /metrics, without the
// facade adding a translation layer.
type (
	// MetricsRegistry holds metric families and renders them in the
	// Prometheus text format (WritePrometheus, Handler). One registry
	// may back any number of campaigns; instruments are atomic.
	MetricsRegistry = obs.Registry
	// CampaignMetrics is the campaign engine's instrument set: trial
	// duration histograms by outcome, trial/retry/resume counters, and
	// checkpoint-journal fsync counts and bytes. Pass it to RunCampaign
	// with WithMetricsSink; serve its registry to expose the values.
	CampaignMetrics = campaign.Metrics
)

// NewMetricsRegistry returns an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// NewCampaignMetrics registers the campaign instrument set on r
// (idempotent: two calls on one registry share series) and returns the
// handle WithMetricsSink takes.
func NewCampaignMetrics(r *MetricsRegistry) *CampaignMetrics { return campaign.NewMetrics(r) }

// WithMetricsSink streams campaign instrumentation into m: per-trial
// duration histograms labelled by outcome, trial completion / retry /
// resume counters, and checkpoint-journal fsync counts and bytes.
//
// The sink is a pure tap, like an Observer: campaign results and
// aggregate statistics are byte-identical with and without it (the
// equivalence tests assert exactly that). One CampaignMetrics may be
// shared across concurrent campaigns; updates are atomic.
func WithMetricsSink(m *CampaignMetrics) CampaignOption {
	return func(o *campaignOpts) { o.metrics = m }
}
