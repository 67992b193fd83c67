"""floorref: hand-eye calibration of ground-observing mobile robots with a
laser tracker and a dual-modality referencing plate, plus the repeatability
experiment and cluster metrics used to validate it."""

__version__ = "0.1.0"

from . import frames
from .camera import (
    CameraModel,
    SceneFrame,
    build_rectification_map,
    estimate_plate_pose_from_image,
)
from .errors import FloorRefError
from .experiment import (
    ClusterReport,
    ExperimentPlan,
    MarkMeasurement,
    cluster_metrics,
    fit_circle,
    measure_mark,
    min_enclosing_circle,
    run_experiment,
)
from .geometry import (
    RigidTransform,
    apply,
    compose,
    invert,
    register_points,
    rotation_distance,
)
from .pipeline import (
    ReferencingResult,
    ReferencingSession,
    compute_rob_h_cam,
    estimate_plate_pose,
    estimate_robot_pose,
    plate_normal,
    reversal_average,
)
from .plate import ReferencingPlate
from .simulate import (
    GLASS_NOISE,
    NoiseConfig,
    RobotModel,
    RobotPlacement,
    SimWorld,
    default_placements,
    demo_world,
    inject_wooden_plate,
    random_world,
    simulate_mark_observation,
    simulate_referencing_session,
)

KERNEL_BACKEND = "python"

__all__ = [
    "CameraModel",
    "ClusterReport",
    "ExperimentPlan",
    "FloorRefError",
    "GLASS_NOISE",
    "MarkMeasurement",
    "NoiseConfig",
    "ReferencingPlate",
    "ReferencingResult",
    "ReferencingSession",
    "RigidTransform",
    "RobotModel",
    "RobotPlacement",
    "SceneFrame",
    "SimWorld",
    "apply",
    "build_rectification_map",
    "cluster_metrics",
    "compose",
    "compute_rob_h_cam",
    "default_placements",
    "demo_world",
    "estimate_plate_pose",
    "estimate_plate_pose_from_image",
    "estimate_robot_pose",
    "fit_circle",
    "frames",
    "inject_wooden_plate",
    "invert",
    "measure_mark",
    "min_enclosing_circle",
    "plate_normal",
    "random_world",
    "register_points",
    "reversal_average",
    "rotation_distance",
    "run_experiment",
    "simulate_mark_observation",
    "simulate_referencing_session",
]
