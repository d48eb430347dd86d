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
MM_MAX_ITER = 10000                # minorize-maximize BTL fits, one edge pass each
MM_RIDGE_NEWTON_MAX = 60           # Newton steps per ridge MM update (it stops at rounding)
ARMIJO_C = 1e-4                    # fixed backtracking slope constant
BACKTRACK_FACTOR = 0.5             # fixed step halving
JOINT_SOLVE_TOL = 1e-12            # tolerance for reference joint minimizers

# condition-constant checks
MC_DIRECTIONS = 256                # Monte Carlo directions for l2 lower estimates

# alternating optimization
AO_BURN_IN = 1
RADII_SLACK = 1.05                 # margin of fixed_point_radii over the radius inequalities
RADII_MAX_ROUNDS = 100
RADII_STOP = 1e-12                 # absolute change that ends the radius iteration
