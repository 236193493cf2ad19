package main

import (
	"fmt"
	"time"

	"reactdb/internal/workload/smallbank"
)

// runChecks checks the program's outputs from outside once every client has
// stopped:
//
//   - reads: every balance the workload read agreed with the ledger's model;
//   - totals: on the primary, the total balance minus the loaded total lies
//     between the acknowledged deposits and the acknowledged plus failed
//     (outcome unknown) ones;
//   - replica: after WaitCaughtUp, every replica row equals the primary's;
//   - recover (serial-rw, when withRecover is set): after Close, reopening the
//     same files and Recover, the recovered total equals the total before the
//     close.
func runChecks(rc runConfig, d *deployment, led *ledger, withRecover bool) []check {
	var out []check
	led.mu.Lock()
	var readErr error
	if led.badReads > 0 {
		readErr = fmt.Errorf("%d bad reads, first: %s", led.badReads, led.firstBad)
	}
	acked, inDoubt := led.acked, led.inDoubt
	led.mu.Unlock()
	out = append(out, check{"reads", readErr})

	total, err := smallbank.TotalBalance(d.db, rc.customers)
	if err == nil {
		loaded := 2 * initialBalance * float64(rc.customers)
		if delta := total - loaded; delta < acked || delta > acked+inDoubt {
			err = fmt.Errorf("total %.0f - loaded %.0f = %.0f, want within [%.0f, %.0f]", total, loaded, delta, acked, acked+inDoubt)
		}
	}
	out = append(out, check{"totals", err})
	out = append(out, check{"replica-equals-primary", replicaMatches(d, rc.customers)})
	if rc.w == serialRW && withRecover {
		out = append(out, check{"recover", recoverMatches(rc, d, total)})
	}
	return out
}

func replicaMatches(d *deployment, customers int) error {
	if err := d.rep.WaitCaughtUp(60 * time.Second); err != nil {
		return fmt.Errorf("wait caught up: %w", err)
	}
	for i := 0; i < customers; i++ {
		for _, relation := range []string{smallbank.RelSavings, smallbank.RelChecking} {
			p, err := d.db.ReadRow(names[i], relation, int64(i))
			if err != nil {
				return fmt.Errorf("primary %s.%s: %w", names[i], relation, err)
			}
			r, err := d.rep.ReadRow(names[i], relation, int64(i))
			if err != nil {
				return fmt.Errorf("replica %s.%s: %w", names[i], relation, err)
			}
			if len(p) != len(r) || p.Float64(1) != r.Float64(1) {
				return fmt.Errorf("%s.%s: replica %v, primary %v", names[i], relation, r, p)
			}
		}
	}
	return nil
}

func recoverMatches(rc runConfig, d *deployment, before float64) error {
	db, err := d.reopenAndRecover(rc.w)
	if err != nil {
		return err
	}
	defer db.Close()
	after, err := smallbank.TotalBalance(db, rc.customers)
	if err != nil {
		return err
	}
	if after != before {
		return fmt.Errorf("recovered total %.0f, before close %.0f", after, before)
	}
	return nil
}
