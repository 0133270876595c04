package main

import "testing"

// The layer probes as benchmarks: go test -run '^$' -bench Layer .

func BenchmarkLayerDiskDo(b *testing.B)        { probeDiskDo(b) }
func BenchmarkLayerDiskDoChain(b *testing.B)   { probeDiskDoChain(b) }
func BenchmarkLayerFileReadPage(b *testing.B)  { probeFileReadPage(b) }
func BenchmarkLayerDirLookup(b *testing.B)     { probeDirLookup(b) }
func BenchmarkLayerStreamGet(b *testing.B)     { probeStreamGet(b) }
func BenchmarkLayerPupRoundTrip(b *testing.B)  { probePupRoundTrip(b) }
func BenchmarkLayerEtherSendRecv(b *testing.B) { probeEtherSendRecv(b) }
func BenchmarkLayerFleetHandoff(b *testing.B)  { probeFleetHandoff(b) }
func BenchmarkLayerTraceEmitNil(b *testing.B)  { probeEmitNil(b) }
func BenchmarkLayerTraceEmitLive(b *testing.B) { probeEmitLive(b) }
