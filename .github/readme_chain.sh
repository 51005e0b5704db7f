#!/usr/bin/env bash
# The README quick-start chain must print the README's pinned line and,
# with short repeat and linearity batches, write byte-identical
# artifacts for the default config and seed. What the sums pin:
# - scan.txt, run1.calibration.txt, run1.record.txt, report.json: the
#   default chain, whose calibration reads the baseband carrier phase at
#   every 16th sample;
# - ml.txt: the three-surface synthesis (three HOM pairs, three fringe
#   packets); ml.calibration.txt and ml.record.txt its calibration on
#   the same phase, read from a config that still names the retired
#   `total_power`, `phase_method` and `filter_num_taps` fields, which are
#   dropped;
#   ml.report.json its three cluster refinements;
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
# The table sums are of table format version 2: a text header, then
# binary float64 columns. The four traces' payloads, the bytes after their
# '# payload' line, are pinned on their own as well: a trace sum moves with
# the config embedded in its header, a payload sum only with the synthesis.
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
56762b549bd4dd37f9563f280982d206de461185d269c191c28c0a12829fcbc0  scan.txt
dd071345d710d05136551d1b816853dd45d440a93fe675eb86091ffcc0803a72  ml.txt
64ab1130f49d3379131f5220579597ff61cc9fdbd567ad0ec8f4f9bc515af723  ml.calibration.txt
9299e96dfd76fb5f8eda95e481a2311ddbd69faf97b8d0e8b81016d9cdefedfb  ml.record.txt
29dd0b4f443ddadfbe406661fed61f8eca2e994d2acbcd62f7e0f5482a5afbcd  run1.calibration.txt
e97f8d52fc46d589757c3ff6f3ac3ec4d50fa06fede9bb3a006d113abcc9e7da  run1.record.txt
537295d2d2c68d0240b7b7fc9e5e944bfe1ff02e589f40a8fcc4faf3089dba6a  report.json
45bc13c190a919f9310e938e7e1ae419e77fbfabd18537b99bc2f5d4707d6f2e  ml.report.json
8ffc80e9d176b19b60dbc09cb7711add4ee237c0645d8c4439cd3e29b19bd1ba  rep.results.json
86e5b9b41942cb9861b9cc301becbddd46c4da3cab5161660e6cd9c50e2cf6c3  rep.separations.txt
755b80c33568af7547b1104ae7a7470f70764f9fda6e8410d67fb39b30d29dbc  lin.results.json
3908136f87cd0ad2fd3b6b18b24af9f7962fb194a2557d6cf833f57cfb8be7ee  lin.measured.txt
c97d19ca5d9717efd274c434fd385a2f04f5178eeaff1163fe992f17d007977b  lin.deviations.txt
e25bee6149dfafe606823ca03efcb038b5441f1d721786fbe8656cd6bdfaa822  nf.txt
df7ac5388466b43549f4119daad70dc7c3b525f82b8f414a0c42e08a3020e49a  nf.calibration.txt
564b1b96d68104ca1b5d32cd2d9786f6faaadd812982f1a8a0b4b58a308a75d3  nf.record.txt
6386f308c45b203a90e42596aeb70329d6d30b7659bb0d70d841b0439fcba6d8  nf.report.json
fe2b1163f37169671abf860407fbb26df8ad9ab01bb2cab63c55d6e1b129799c  cs.txt
51933e8414611e71d4da9127701ce5e48ef0bb6b5be216d5e3ee465e7994fff5  fs.record.txt
02281c5f94a724769e8eca75b18d710b477601abfe1acf13ae57c9df2c49d938  fs.report.json
a1fd53e20a9047b2c16a3a01207a0e636de751ca01de401663f5b739a11c14dd  repf.results.json
EOF
for t in scan ml nf cs; do
  python -c 'import sys; d = open(sys.argv[1], "rb").read()
sys.stdout.buffer.write(d[d.index(b"\n# payload float64-le\n") + 22:])' "$t.txt" > "$t.payload"
done
sha256sum -c - <<'EOF'
65269c4daf49db9369027e13fab0e8048e849ca957d9c77eb6d5a4b68c032dd7  scan.payload
33e98e1a9e2f9660d736a099aa9f70d1fb5d32dc222b4fd1c7ccce5199a18c3a  ml.payload
02726109feee8b15010aae9e1f6d8d3d02ecbd3b5d2dd46151639afc1ecb1a05  nf.payload
7f57ec73d76076709e8e4d145c51bc78f7ef5e99528530724c5b32028db5bf45  cs.payload
EOF
