#!/usr/bin/env python3
"""The dispatch side: danger areas, the wire protocol and lead times.

Builds a 200 m deployment, registers a few pedestrians through the same
line protocol real clients would speak, then replays detection events and
shows exactly who gets warned and how much time they have.
"""

from roadwarn.deployment import DeploymentPlan, warning_lead_time
from roadwarn.cli import run_simulation
from roadwarn.labels import APPROACHING, RECEDING, DetectionResult, SoundClass
from roadwarn.warnd import Dispatcher

plan = DeploymentPlan(200.0)
print(f"plan: {plan.processor_count} processors every {plan.processor_spacing:.0f} m; "
      f"each warns the area {plan.warning_offset_areas} spacings downstream")
print(f"lead-time window at {plan.max_design_speed:.0f} km/h: "
      f"{warning_lead_time(75, plan.max_design_speed):.1f} s to "
      f"{warning_lead_time(100, plan.max_design_speed):.1f} s\n")

# --- clients registering over the wire ---------------------------------------

dispatcher = Dispatcher(plan)
inboxes = {}


def connect(reg_line):
    cid = reg_line.split()[1]
    inboxes[cid] = []
    response = dispatcher.handle_line(reg_line, inboxes[cid].append)
    print(f"  {reg_line!r} -> {response!r}")


print("pedestrians joining:")
connect("REG ada 87.5 2.0 0.0")     # inside area 3 ([75, 100])
connect("REG grace 95.0 6.5 0.0")   # also area 3, far lane edge
connect("REG alan 140.0 3.0 0.0")   # downstream, area 5
print()

# --- events ------------------------------------------------------------------

events = [
    ("LH at full speed detected at processor 0, warning area 3",
     DetectionResult(20, SoundClass.LH, APPROACHING), 3),
    ("LL vehicle (slow, light): policy never warns",
     DetectionResult(20, SoundClass.LL, APPROACHING), 3),
    ("H vehicle moving away: suppressed",
     DetectionResult(20, SoundClass.H, RECEDING), 3),
    ("H vehicle approaching the downstream area",
     DetectionResult(20, SoundClass.H, APPROACHING), 5),
]
for caption, result, target in events:
    delivered = dispatcher.dispatch(result, target, event_time=1.0)
    print(f"{caption}\n  delivered to: {sorted(delivered) or 'nobody'}")
for cid, lines in inboxes.items():
    print(f"  {cid} inbox: {lines}")
print()

# --- the same flow as a scripted simulation ----------------------------------

script = [
    "PED walker 87.5 2.0 9.0",
    "VEHICLE LH 75 0 10.0",   # detected at x=0, warns [75, 100] -> 4.2 s lead
    "VEHICLE LL 40 0 12.0",   # never warns
]
print("scripted replay:")
for line in run_simulation(plan, script):
    print(" ", line)
