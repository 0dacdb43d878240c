package main

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"chameleon/internal/experiments"
	"chameleon/internal/sim"
)

// TestRunThreeTierOverlay drives the CLI's run path with a memory_tiers
// overlay: a stacked DRAM + off-chip DRAM + NVM machine under the
// three-tier hwc policy must simulate and report without error.
func TestRunThreeTierOverlay(t *testing.T) {
	overlay := `{"memory_tiers": [
		{"DRAM": {"Name": "stacked", "CapacityBytes": 2097152, "Channels": 2, "RanksPerChan": 2,
			"BanksPerRank": 8, "BusFreqHz": 1.6e9, "BusWidthBits": 128, "RowBytes": 2048,
			"TCAS": 11, "TRCD": 11, "TRP": 11, "TRAS": 28, "TRFCNanos": 138, "TREFINanos": 7800}},
		{"DRAM": {"Name": "offchip", "CapacityBytes": 8388608, "Channels": 2, "RanksPerChan": 2,
			"BanksPerRank": 8, "BusFreqHz": 0.8e9, "BusWidthBits": 64, "RowBytes": 2048,
			"TCAS": 11, "TRCD": 11, "TRP": 11, "TRAS": 28, "TRFCNanos": 160, "TREFINanos": 7800}},
		{"NVM": {"Name": "pmem", "CapacityBytes": 33554432, "ReadLatencyNanos": 300,
			"WriteLatencyNanos": 1000, "ReadBandwidth": 8e9, "WriteBandwidth": 3e9}}
	]}`
	path := filepath.Join(t.TempDir(), "tiers.json")
	if err := os.WriteFile(path, []byte(overlay), 0o644); err != nil {
		t.Fatal(err)
	}
	err := run(runCfg{
		policyName: "hwc", wlName: "bwaves", scale: 1024,
		instr: 20_000, warmup: 50_000, seed: 7,
		configPath: path, energy: true, counters: true,
	})
	if err != nil {
		t.Fatalf("three-tier CLI run: %v", err)
	}
}

// TestRunRejectsUnknownConfigKeys: a -config file with a key the schema
// does not define (here the retired Fast/Slow DRAM pair) fails the run
// with an error naming the file and the key, instead of silently
// simulating the default machine.
func TestRunRejectsUnknownConfigKeys(t *testing.T) {
	path := filepath.Join(t.TempDir(), "old.json")
	if err := os.WriteFile(path, []byte(`{"Fast": {"CapacityBytes": 4194304}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	err := run(runCfg{
		policyName: "chameleon-opt", wlName: "bwaves", scale: 1024,
		instr: 10_000, warmup: 10_000, seed: 7, configPath: path,
	})
	if err == nil || !strings.Contains(err.Error(), path) || !strings.Contains(err.Error(), `"Fast"`) {
		t.Fatalf("err %v, want one naming %s and the Fast key", err, path)
	}
}

// TestAutoNUMAMatchesCell: -autonuma configures the AutoNUMA engine a
// reproduction cell with the same threshold and budgets runs, so
// `-policy numa-flat -autonuma 0.9` is the Fig. 2b/2c/20 cell.
func TestAutoNUMAMatchesCell(t *testing.T) {
	rc := runCfg{
		policyName: "numa-flat", wlName: "cloverleaf", scale: 256,
		instr: 500_000, warmup: 4_000_000, seed: 42, autonuma: 0.9,
	}
	opts, err := simOptions(rc)
	if err != nil {
		t.Fatal(err)
	}
	cell, err := experiments.Cell{Policy: sim.PolicyNUMAFlat, Workload: rc.wlName, Scale: rc.scale,
		Seed: rc.seed, Instructions: rc.instr, Warmup: rc.warmup, AutoNUMA: rc.autonuma}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	want, err := cell.Options()
	if err != nil {
		t.Fatal(err)
	}
	if opts.AutoNUMA == nil || !reflect.DeepEqual(*opts.AutoNUMA, *want.AutoNUMA) {
		t.Fatalf("CLI AutoNUMA = %+v, want the cell's %+v", opts.AutoNUMA, *want.AutoNUMA)
	}
}
