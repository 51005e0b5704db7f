#!/usr/bin/env bash
# The README quick-start chain must print the README's pinned line and,
# with short repeat and linearity batches, write byte-identical
# artifacts for the default config and seed. What the sums pin:
# - scan.txt, run1.calibration.txt, run1.record.txt, report.json: the
#   default chain, whose calibration reads the analytic carrier phase;
# - ml.txt: the three-surface synthesis (three HOM pairs, three fringe
#   packets); ml.calibration.txt and ml.record.txt its zero-crossing
#   phase path; ml.report.json its three cluster refinements;
# - nf.*: the default config with `noise.enabled: false`, the one way to
#   switch counting noise off: expected counts per bin, no Poisson draw;
# - cs.txt: synthesis on close surfaces (10/40/70 um), whose coherence
#   supports overlap and the first is clipped at the scan start;
# - fs.record.txt, fs.report.json: the default sample 20 cm along the
#   stage (scan 200000-200300 um); this covers position rounding far
#   along the stage, where a resampled grid step differs from
#   grid_step by more than 1e-9 of it through float rounding alone;
# - rep.results.json: a seed ledger plus a summary; repf.results.json
#   the ledger entry of a flagged outlier run; lin.results.json a step
#   ledger with each step's fringe-order flag as `outlier`;
#   rep.separations.txt, lin.measured.txt, lin.deviations.txt their
#   plot data.
# The table sums are of table format version 2, whose columns are
# binary float64 after a text header. A trace holds the three recorded
# channels; its noise-free truth stays in memory. The reports hold no
# peak count and no copy of separation_m. A trace's `# metadata` holds
# the seeds and the Poisson switch, and a record's `# quality` holds no
# copy of `# grid_step`.
#
# Run it from any directory: bash .github/readme_chain.sh
# It finds the repository from its own path, runs the chain in a temporary
# directory that it removes on exit, and fails on the first step or sum
# that does not match.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
export PYTHONPATH="$root/src"
readme="$root/README.md"
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
cd "$work"
python -m qolcr.cli simulate --output scan.txt
python -m qolcr.cli simulate --config "$root/perfbench/multilayer.json" --output ml.txt
python -m qolcr.cli calibrate ml.txt --output ml
python -m qolcr.cli calibrate scan.txt --output run1
line=$(python -m qolcr.cli measure run1.record.txt --output report.json | tail -n 1)
echo "$line"
grep -qxF -- "$line" "$readme"
python -m qolcr.cli measure ml.record.txt --output ml.report.json
python -m qolcr.cli repeat --runs 3 --output rep
python -m qolcr.cli repeat --runs 3 --force-ambiguity 1 --output repf
python -m qolcr.cli linearity --steps 3 --output lin
echo '{"noise": {"enabled": false}}' > nf.json
python -m qolcr.cli simulate --config nf.json --output nf.txt
python -m qolcr.cli calibrate nf.txt --output nf
python -m qolcr.cli measure nf.record.txt --output nf.report.json
echo '{"sample": {"surfaces": [{"reflectivity": 0.6, "position_um": 10.0}, {"reflectivity": 0.05, "position_um": 40.0}, {"reflectivity": 0.6, "position_um": 70.0}]}}' > cs.json
python -m qolcr.cli simulate --config cs.json --output cs.txt
echo '{"sample": {"surfaces": [{"reflectivity": 0.6, "position_um": 200009.886}, {"reflectivity": 0.6, "position_um": 200290.114}]}, "scan": {"start_um": 200000.0, "stop_um": 200300.0}}' > fs.json
python -m qolcr.cli simulate --config fs.json --output fs.txt
python -m qolcr.cli calibrate fs.txt --output fs
python -m qolcr.cli measure fs.record.txt --output fs.report.json
sha256sum -c - <<'EOF'
f7812e591d1b0f49bc1e3c2a6127d1a740a8871ef83353b9ba2c81448964b035  scan.txt
352ba79ce75e18b4f5934f250204dfb1139c0147537d77448c883714e661e6f4  ml.txt
53ba7e3c5720bab7e07c9515da45bdfd3fa6d506839e3acdabfd72b3986ce4a5  ml.calibration.txt
a54419eaab8f5c26fe61af5718976d3b85550708a2cb332d361c04eb0b4c6010  ml.record.txt
61edf46f7d016c3dd137014d019e5654143dc48b3e3a141db64832c6bace0e0b  run1.calibration.txt
84d9a6e1e2f55aaeed94245a0bf317c9b758dd13c55163839cb32ceb18ac4311  run1.record.txt
d83e4fc80d2bc3d02864d98b40c7cc46f910722a287941350d98a41e0b6ffaea  report.json
d6af390272c41198eacb1421c4060df261ee177cd32a932543163f94a5c83165  ml.report.json
1b2221f97b5ca00edfe480e05955b0c8d411c2f93dc429f6946ed841662fafad  rep.results.json
348f9db1e7e9c15082639dffe19256d778272fc73c6d5f338d74051258d71362  rep.separations.txt
ef93cd1a2be154ca2e5a589d04eaa0d0caeadc359d2f4601110c5821c130e6e4  lin.results.json
05a2b2d454a5a8f80686d16126c4c847a2ad383bdccce3bde457ec132a777bdd  lin.measured.txt
bf0abe79f2d69a4d5057b6317d7b2a8c6b7d890f42e02934dc9bfbf313bcb5b2  lin.deviations.txt
92297428413609237b5c263b715f5e6b88b594187b2ddd0b311a98cdb159aa83  nf.txt
ad43d61d22a4e91606a6a63b09d17c2d3e65499480f54f6ac859d07af4526e23  nf.calibration.txt
bac28c9ad6380ef26adc29c7f45bb94b9c4474ea56afaa7895bedde9f49bfb1c  nf.record.txt
07913c40177f3e1a1c7c2389e6c530d715f8b750d248ff06ce2f212ba1edb46d  nf.report.json
69d1a041a04743468f6f8e5ec6909c49f350d54fe6b186ebc0395469a5c1141d  cs.txt
a34d07fd639ba4b286518bc9dbdf85c40de7cd022cc16336a855c89a03d958f3  fs.record.txt
07d58338910afeba967a16cdb26142d895e20d8439c16839d7ec306e86d301ab  fs.report.json
dbcab46f97694621d80bebcb593d06ff30181ce809f2d91543206c8363e8f0ae  repf.results.json
EOF
