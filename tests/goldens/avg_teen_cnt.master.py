# Generated Pregel master for 'avg_teen_cnt'.

def MASTER_STEP(ctx, M, pc):
    for _ in range(10000000):
        if pc == 0:
            ctx.put_broadcast('_state', 0)
            for _name, _value in M.items():
                ctx.put_broadcast(_name, _value)
            return 1
        elif pc == 1:
            M['_gm_r1'] = 0
            M['_gm_r2'] = 0
            ctx.put_broadcast('_state', 2)
            for _name, _value in M.items():
                ctx.put_broadcast(_name, _value)
            ctx.globals.open_at('_gm_r1', M['_gm_r1'])
            ctx.globals.open_at('_gm_r2', M['_gm_r2'])
            return 4
        elif pc == 4:
            if ctx.globals.has_aggregated('_gm_r1'):
                M['_gm_r1'] = ctx.get_agg('_gm_r1')
            if ctx.globals.has_aggregated('_gm_r2'):
                M['_gm_r2'] = ctx.get_agg('_gm_r2')
            M['avg'] = float((0.0 if (M['_gm_r2'] == 0) else gm_div(float(M['_gm_r1']), float(M['_gm_r2']))))
            ctx.halt(M['avg'])
            return None
    raise RuntimeError("master did not yield a vertex phase (infinite loop?)")
