from .backend import (Obligation, SolverConfig, SolverVerdict, encode, check,
                      check_many, SmtError, SolverCrash, ModelParseError,
                      UnsupportedTerm, SolverModelUnsound, model_check_stats,
                      default_solver_argv)

__all__ = ["Obligation", "SolverConfig", "SolverVerdict", "encode", "check",
           "check_many", "SmtError", "SolverCrash", "ModelParseError",
           "UnsupportedTerm", "SolverModelUnsound", "model_check_stats",
           "default_solver_argv"]
