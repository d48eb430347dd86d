"""Central tolerance and iteration-budget table.

Every numerical threshold used by the package lives here so that test
expectations and runtime behavior stay in sync.
"""

# symmetry / construction checks
SYMMETRY_RTOL = 1e-12

# dense linear algebra
SINGULAR_EIG_RTOL = 1e-12          # relative floor below which a negative power refuses

# finite differences
FD_STEP_SCALE = 1e-5               # h = FD_STEP_SCALE * (1 + sup-norm of x)
FD_DIRECTIONS = 3

# solvers
SOLVER_GRAD_TOL = 1e-10            # default sup-norm gradient tolerance
NEWTON_MAX_ITER = 200
COORD_MAX_SWEEPS = 10000
ARMIJO_C = 1e-4                    # fixed backtracking slope constant
BACKTRACK_FACTOR = 0.5             # fixed step halving
JOINT_SOLVE_TOL = 1e-12            # tolerance for reference joint minimizers

# scalar safeguarded Newton (per-coordinate solves)
SCALAR_BRACKET_SCALE = 64.0        # initial bracket half-width: 64 * (1 + |x_i|)
SCALAR_BRACKET_DOUBLINGS = 60
SCALAR_MAX_ITER = 100

# condition-constant scans
GRID_RESOLUTION = 1e-3             # step of the dense 1-D scan for the pure third derivative
GRID_MAX_POINTS = 20001            # cap; step widens beyond it (scan features have width ~1)
MC_DIRECTIONS = 256                # Monte Carlo directions for l2 lower estimates

# alternating optimization
AO_BURN_IN = 1
