"""Canonical coordinate-frame tags.

Frames are plain strings; transforms carry a source and a destination tag and
composition is refused when the inner tags disagree. The five canonical frames:

    ABS  laser-tracker world frame
    ROB  robot frame, origin at the robot-mounted reflector center
    CAM  nadir camera frame
    REF  referencing-plate frame (plate surface is the xy-plane, z into plate)
    SCN  scene frame in the floor plane, aligned to the rectified image, z up

Simulator-internal frames use free-form labels.
"""

ABS = "abs"
ROB = "rob"
CAM = "cam"
REF = "ref"
SCN = "scn"
