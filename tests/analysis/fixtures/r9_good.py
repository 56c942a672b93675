"""R9 clean: the encoder's checked solve is the one caller of the warm solver."""


class CompletionEncoder:
    def _solve(self, assumptions):
        while True:
            model = self.solver.solve(assumptions)
            if model is None or not self._refine_cyclic_blocks(model):
                return model


def probe(encoder, assumptions):
    return encoder._solve(assumptions) is not None


def raw_engine(solver):
    return solver.solve()  # a bare engine over a hand-built CNF, no encoder
