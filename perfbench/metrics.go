package main

// layerMetric is one per-layer metric: its unit and the workloads that
// exercise its layer (space-separated; "" = every workload).
type layerMetric struct {
	unit, workloads string
}

// layerMetrics lists every per-layer metric a traced run prints.
// METRICS.md gives each one's definition and the end-to-end metric it
// should move. A workload that does not exercise a layer reports that
// layer's metrics as 0 (the benchmark's tests hold it to that).
var layerMetrics = map[string]layerMetric{
	// wire (serve-steady)
	"wire.arrivals_per_s":     {"1/s", "serve-steady"},
	"wire.ack_p50_us":         {"us", "serve-steady"},
	"wire.encode_ns":          {"ns", "serve-steady"},
	"wire.decode_ns":          {"ns", "serve-steady"},
	"wire.bytes_per_arrival":  {"bytes", "serve-steady"},
	"wire.tax_ns_per_arrival": {"ns", "serve-steady"},
	// server (serve-steady)
	"server.frames":   {"count", "serve-steady"},
	"server.admitted": {"count", "serve-steady"},
	"server.shed":     {"count", "serve-steady"},
	// core arrival path (serve-steady)
	"core.engine_arrivals_per_s": {"1/s", "serve-steady"},
	"core.submit_ns":             {"ns", "serve-steady"},
	"core.finish_ns_per_query":   {"ns", "serve-steady"},
	"core.schedule_batch_ns":     {"ns", "serve-steady"},
	"core.drift_triggers":        {"count", "serve-steady"},
	// core model acquisition (serve-online)
	"core.sla_violation_pct":      {"%", "serve-online"},
	"core.build_events":           {"count", "serve-online"},
	"core.build_share":            {"ratio", "serve-online"},
	"core.shift_builds":           {"count", "serve-online"},
	"core.augmented_builds":       {"count", "serve-online"},
	"core.omega_hits":             {"count", "serve-online"},
	"core.omega_hit_ratio":        {"ratio", "serve-online"},
	"core.shift_build_ms_p50":     {"ms", "serve-online"},
	"core.augmented_build_ms_p50": {"ms", "serve-online"},
	"core.nobuild_submit_ns":      {"ns", "serve-online"},
	"core.omega_size":             {"count", "serve-online"},
	// registry (serve-online)
	"registry.drift_retrains":    {"count", "serve-online"},
	"registry.retrain_ms_total":  {"ms", "serve-online"},
	"registry.warm_sample_ratio": {"ratio", "serve-online"},
	// cloud (both serve workloads)
	"cloud.vms_rented": {"count", "serve-steady serve-online"},
	// train phases and the layers under them (train)
	"train.train_s":          {"s", "train"},
	"train.adapt_s":          {"s", "train"},
	"train.retrain_s":        {"s", "train"},
	"train.checkpoint_s":     {"s", "train"},
	"train.avg_s":            {"s", "train"},
	"train.stage_sum_s":      {"s", "train"},
	"train.stage_sum_ratio":  {"ratio", "train"},
	"workload.sample_ms":     {"ms", "train"},
	"search.solve_ms":        {"ms", "train"},
	"search.expanded":        {"count", "train"},
	"search.cache_hit_ratio": {"ratio", "train"},
	"search.adapt_ms":        {"ms", "train"},
	"search.adapt_expanded":  {"count", "train"},
	"search.avg_solve_ms":    {"ms", "train"},
	"search.avg_expanded":    {"count", "train"},
	"features.fold_ms":       {"ms", "train"},
	"dt.fit_ms":              {"ms", "train"},
	"dt.rows":                {"count", "train"},
	"dt.nodes":               {"count", "train"},
	"core.warm_replay_ratio": {"ratio", "train"},
	"store.encode_ms":        {"ms", "train"},
	"store.commit_ms":        {"ms", "train"},
	"store.decode_ms":        {"ms", "train"},
	"store.bytes":            {"bytes", "train"},
	// every workload
	"runtime.gc_cycles":   {"count", ""},
	"runtime.gc_pause_ms": {"ms", ""},
	"trace.overhead_pct":  {"%", ""},
}
