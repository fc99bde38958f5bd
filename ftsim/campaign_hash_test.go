package ftsim

import "testing"

// TestCampaignHashStable pins campaignHash for a small grid that
// exercises every section of the machine description: checkpoint
// journals on disk carry this value, so a change here makes every
// saved campaign refuse to resume.
func TestCampaignHashStable(t *testing.T) {
	prog, err := Assemble("loop.s", "halt\n")
	if err != nil {
		t.Fatal(err)
	}
	faulty := ModelSS2.Config()
	faulty.Fault = FaultConfig{Rate: 1e-3, Seed: 7, Targets: AllFaultTargets()}
	faulty.MaxInsts = 5000
	stuck := ModelSS3.Config()
	stuck.Persistent = &PersistentFault{Pool: PoolFPMult, Unit: 0, Bit: 9}
	stuck.TransformOperands, stuck.CoSchedule, stuck.Oracle = true, true, true
	stuck.Fault = FaultConfig{Rate: 1e-2, Targets: []FaultTarget{FaultResident, FaultBranch}}
	custom := Config{R: 2, RecoveryPenalty: 20, MaxCycles: 9000}
	custom.BranchPred.Kind = "bimodal"
	trials := []Trial{
		{Label: "ss1", Config: ModelSS1.Config(), Program: prog},
		{Label: "ss2/faults", Config: faulty, Program: prog},
		{Label: "ss3/stuck", Config: stuck, Program: prog},
		{Label: "static2", Config: ModelStatic2.Config(), Program: prog},
		{Label: "custom", Config: custom, Program: prog},
	}
	got, err := campaignHash(trials)
	if err != nil {
		t.Fatal(err)
	}
	if want := uint64(0xc8c310c724bf1244); got != want {
		t.Errorf("campaignHash = %#x, want %#x", got, want)
	}
}
