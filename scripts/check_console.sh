#!/usr/bin/env bash
# End-to-end checks of the selfnorm command line against tests/golden, on a
# fresh HOME. The arguments are the command that runs selfnorm:
#
#     scripts/check_console.sh selfnorm                         # the installed console script
#     PYTHONPATH=src scripts/check_console.sh python -m selfnorm.cli   # a source checkout
#
# Each check that fails stops the script with a nonzero status.
set -euo pipefail

if [ "$#" -eq 0 ]; then
  echo "usage: $0 SELFNORM-COMMAND..." >&2
  exit 2
fi
cmd=("$@")
# `command` skips this function, so the command may itself be `selfnorm`
selfnorm() { command "${cmd[@]}" "$@"; }

golden="$(cd "$(dirname "$0")/../tests/golden" && pwd)"
HOME="$(mktemp -d)"
export HOME
trap 'rm -rf "$HOME"' EXIT

# stdout of `selfnorm run` is the JSON report, byte for byte
selfnorm run --family StudentT --alpha 1.5 --p 2 --n 100,300 --reps 8 --seed 106 \
  --experiment tightness_scan | cmp - "$golden/studentt_tightness.json"
# --n takes integral floats, as the config file does: the same report
selfnorm run --family StudentT --alpha 1.5 --p 2 --n 1e2,3e2 --reps 8 --seed 106 \
  --experiment tightness_scan | cmp - "$golden/studentt_tightness.json"
# the same run from a config file: the CLI passes its values on as read,
# and ExperimentConfig and FamilySpec check them
printf '%s\n' '{"family": "StudentT", "alpha": 1.5, "p": 2, "n": [100, 300], "reps": 8,' \
  '"seed": 106, "experiment": "tightness_scan"}' > "$HOME/cfg.json"
selfnorm run --config "$HOME/cfg.json" | cmp - "$golden/studentt_tightness.json"
# a JSON true is not a number: the same config with "reps": true exits 1
sed 's/"reps": 8/"reps": true/' "$HOME/cfg.json" > "$HOME/bad.json"
status=0; selfnorm run --config "$HOME/bad.json" || status=$?
test "$status" -eq 1
# a null inside the nested family is refused by its key, with --alpha given
printf '%s\n' '{"family": {"kind": "SymStable", "alpha": null}, "p": 2, "n": [100], "reps": 8,' \
  '"seed": 106, "experiment": "degenerate_scan"}' > "$HOME/null.json"
status=0; selfnorm run --alpha 1.5 --config "$HOME/null.json" 2> "$HOME/null.err" || status=$?
test "$status" -eq 1
grep -qx "error: config key 'family.alpha' cannot be null" "$HOME/null.err"
# a config file that is not UTF-8 is one error line, not a traceback
printf '\377\376{' > "$HOME/bytes.json"
status=0; selfnorm run --config "$HOME/bytes.json" 2> "$HOME/bytes.err" || status=$?
test "$status" -eq 1
test "$(wc -l < "$HOME/bytes.err")" -eq 1
grep -q "^error: config file .* is not valid JSON: " "$HOME/bytes.err"
# no flag sets a delta grid: a usage error exits 1, as every usage error does
status=0; selfnorm run --family StudentT --alpha 1.5 --p 2 --n 100,300 --reps 8 --seed 106 \
  --experiment tightness_scan --delta-grid 0.5 || status=$?
test "$status" -eq 1
# nor a t grid: fdd_covariance reads its fixed times
status=0; selfnorm run --family StudentT --alpha 1.5 --p 2 --n 100,300 --reps 8 --seed 106 \
  --experiment tightness_scan --t-grid 0.5,1 || status=$?
test "$status" -eq 1
# nor a report encoding: a report is its JSON payload, so --format is a usage
# error, and a config file's "format" key is refused by name
status=0; selfnorm run --family StudentT --alpha 1.5 --p 2 --n 100,300 --reps 8 --seed 106 \
  --experiment tightness_scan --format csv 2> "$HOME/format.err" || status=$?
test "$status" -eq 1
grep -qx "error: unrecognized arguments: --format csv" "$HOME/format.err"
sed 's/"reps": 8,/"reps": 8, "format": "json",/' "$HOME/cfg.json" > "$HOME/format.json"
status=0; selfnorm run --config "$HOME/format.json" 2> "$HOME/format.err" || status=$?
test "$status" -eq 1
grep -qx "error: unknown config key 'format'" "$HOME/format.err"
# a sweep always runs the three regime scans: --experiment is a usage error
# there, and a sweep config file's "experiment" key is refused by name
status=0; selfnorm sweep --family SymStable --alpha 0.8,2.0 --p 1.5,2.0 --n 100,200 --reps 8 \
  --seed 42 --experiment degenerate_scan 2> "$HOME/experiment.err" || status=$?
test "$status" -eq 1
grep -qx "error: unrecognized arguments: --experiment degenerate_scan" "$HOME/experiment.err"
printf '%s\n' '{"family": "SymStable", "alpha": [0.8, 2.0], "p": [1.5, 2.0], "n": [100, 200],' \
  '"reps": 8, "seed": 42, "experiment": "degenerate_scan"}' > "$HOME/sweep.json"
status=0; selfnorm sweep --config "$HOME/sweep.json" 2> "$HOME/experiment.err" || status=$?
test "$status" -eq 1
grep -qx "error: unknown config key 'experiment'" "$HOME/experiment.err"
# a family has no scale, which cannot move Y_{n,p}: the nested key is refused by name
printf '%s\n' '{"family": {"kind": "StudentT", "alpha": 1.5, "scale": 2.0}, "p": 2, "n": [100, 300],' \
  '"reps": 8, "seed": 106, "experiment": "tightness_scan"}' > "$HOME/scale.json"
status=0; selfnorm run --config "$HOME/scale.json" 2> "$HOME/scale.err" || status=$?
test "$status" -eq 1
grep -qx "error: unknown family config key 'scale'" "$HOME/scale.err"
# the p = 1.5 tightness scan of the two-p golden regime_map row, run alone
# at the row's seed, derive_seed(108, 0)
selfnorm run --family SymStable --alpha 1.5 --p 1.5 --n 100,400 --reps 8 \
  --seed 6921639913566689609 --epsilon 0.2 --experiment tightness_scan \
  | cmp - "$golden/regime_cell_p1.5_tightness_scan.json"
# a two-n chf_compare: n = 1000 is scaled beside the draw that n = 100 000
# reads, and at workers 2 each block of 4 replications reuses its buffers
for w in 1 2; do
  selfnorm run --family SymStable --alpha 1.5 --p 2 --n 1000,100000 --reps 8 --seed 7 \
    --experiment chf_compare --workers "$w" | cmp - "$golden/chf_compare_two_n.json"
done
# the criterion-7 family, Cauchy: each variate reads T's uniform alone
for w in 1 2; do
  selfnorm run --family SymStable --alpha 1 --p 2 --n 500 --reps 8 --seed 105 \
    --experiment chf_compare --workers "$w" | cmp - "$golden/chf_compare.json"
done
# SymStable at alpha = 2 reads the transform's own path, 2 sin(T) sqrt(W)
selfnorm run --family SymStable --alpha 2 --p 2 --n 100,400 --reps 8 --seed 109 \
  --experiment ek_functionals | cmp - "$golden/ek_functionals_alpha2.json"
# the two kinds no step above runs: the endpoint scan, and the covariances of
# Y at the t grid, whose blocks at workers 2 must join to the same bytes
selfnorm run --family SymStable --alpha 1.5 --p 1.2 --n 50,200 --reps 8 --seed 101 \
  --experiment degenerate_scan | cmp - "$golden/degenerate_scan.json"
for w in 1 2; do
  selfnorm run --family Gaussian --alpha 2 --p 2 --n 64,256 --reps 8 --seed 103 \
    --experiment fdd_covariance --workers "$w" | cmp - "$golden/fdd_covariance.json"
done
# a regime-map row holds two p: its reports must not depend on the worker count
for w in 1 2; do
  selfnorm sweep --family SymStable --alpha 0.8,2.0 --p 1.5,2.0 --n 100,200 --reps 8 \
    --seed 42 --workers "$w" --out "$HOME/sweep-w$w"
done
diff -r "$HOME/sweep-w1" "$HOME/sweep-w2"
echo "console checks passed"
