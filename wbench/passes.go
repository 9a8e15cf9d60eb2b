package main

// Per-layer metrics taken from traced passes: spans give the client,
// serve and gateway timings; the servers' and the gateway's own counters
// give reuse, rejection, queue and cache figures.

// httpLayerMetrics fills the client, serve and wire metrics from a pass
// whose callers used the HTTP stack e.
func httpLayerMetrics(tree *spanTree, e *httpEnv, m map[string]float64) {
	var transport, handler, wire []float64
	for _, s := range tree.layer(layerClient) {
		transport = append(transport, us(tree.self(s)))
		wire = append(wire, float64(s.reqBytes+s.respBytes))
	}
	for _, s := range tree.layer(layerServe) {
		handler = append(handler, us(s.dur()))
	}
	m["client.transport_us"] = median(transport)
	m["serve.handler_us"] = median(handler)
	m["proto.wire_bytes_per_request"] = mean(wire)

	var created, completed, rejected int64
	var depthSum float64
	var depthCount int64
	for _, srv := range e.st.servers {
		snap := srv.Metrics().Snapshot()
		created += srv.CreatedDecomposers()
		completed += snap.Completed
		rejected += snap.Rejected
		depthSum += snap.QueueDepth.Sum
		depthCount += snap.QueueDepth.Count
	}
	m["serve.pool_reuse_ratio"] = 1 - float64(created)/float64(max(completed, 1))
	m["serve.rejected"] = float64(rejected)
	m["serve.queue_depth_mean"] = depthSum / float64(max(depthCount, 1))
}

// gatewayLayerMetrics fills the gateway metrics from a traced fleet pass;
// evictions is the eviction count over the pass.
func gatewayLayerMetrics(tree *spanTree, evictions int64, m map[string]float64) {
	var self, hit, miss, tiled, tiledSelf, subreqs, attempts []float64
	for _, s := range tree.layer(layerGateway) {
		self = append(self, us(tree.self(s)))
		if s.cache == "hit" {
			hit = append(hit, us(s.dur()))
			continue
		}
		miss = append(miss, us(s.dur()))
		if s.backend == "tiled" {
			tiled = append(tiled, ms(s.dur()))
			tiledSelf = append(tiledSelf, ms(tree.self(s)))
			subreqs = append(subreqs, float64(len(tree.children[s.id])))
		} else {
			attempts = append(attempts, float64(s.attempts))
		}
	}
	m["gateway.handler_self_us"] = median(self)
	m["gateway.cache_hit_ratio"] = float64(len(hit)) / float64(max(len(hit)+len(miss), 1))
	m["gateway.cache_evictions"] = float64(evictions)
	m["gateway.cache_hit_us"] = median(hit)
	m["gateway.cache_miss_us"] = median(miss)
	m["gateway.tiled_ms"] = median(tiled)
	m["gateway.tile_subrequests"] = mean(subreqs)
	m["gateway.tile_self_ms"] = median(tiledSelf)
	m["gateway.attempts_per_request"] = mean(attempts)
}

// evictions is the fleet gateway's cache eviction count so far (0 for
// other workloads).
func evictions(env workloadEnv) int64 {
	if e, ok := env.(*httpEnv); ok && e.st != nil && e.st.gw != nil {
		return e.st.gw.Metrics().CacheEvictions.Value()
	}
	return 0
}
