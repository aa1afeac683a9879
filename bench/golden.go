package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
)

// writeGolden runs every SeqNum the default seed can reach on every
// workload once, untimed, and records the report hashes for this
// GOARCH in the golden file at path, keeping other architectures'
// entries. A later optimisation that moves a report bit then fails
// verification instead of passing silently; a change that is meant to
// move bits regenerates the file and says so.
func writeGolden(opt options, path string) error {
	all := map[string]map[string]map[string]string{}
	if b, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(b, &all); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	arch := map[string]map[string]string{}
	for _, w := range workloadDefs {
		ver := newVerifier(w, nil)
		e, err := newEnv(w, opt.dataDir, defaultSeed, true, ver)
		if err != nil {
			return err
		}
		reps := 1
		if w.mode == modeService && !w.freshPerRep {
			reps = maxRepsPerManager
		}
		for r := 0; r < reps; r++ {
			if _, err := e.rep(nil); err != nil {
				return err
			}
		}
		if _, err := e.close(false); err != nil {
			return err
		}
		if ver.failed > 0 {
			return ver.firstErr
		}
		arch[w.name] = map[string]string{}
		for seq, h := range ver.seen {
			arch[w.name][fmt.Sprint(seq)] = h
		}
		fmt.Printf("%s: %d SeqNums\n", w.name, len(ver.seen))
	}
	all[runtime.GOARCH] = arch
	b, err := json.MarshalIndent(all, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
